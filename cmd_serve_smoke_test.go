// Service-mode smoke tests: cmd/dce-serve over real TCP. The drain test
// is the acceptance check for graceful shutdown — SIGTERM mid-campaign
// checkpoints the running job, /healthz passes through "draining", the
// process exits 0, and resuming from the checkpoint reports
// byte-identically to an uninterrupted run.
package dcelens

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// serveStderr accumulates a dce-serve process's stderr after the
// announce line; done closes once the pipe hits EOF (process exiting),
// which must happen before cmd.Wait.
type serveStderr struct {
	mu    sync.Mutex
	lines []string
	done  chan struct{}
}

func (s *serveStderr) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.lines, "\n")
}

// startServe launches dce-serve on an ephemeral port with the given
// extra flags and returns the process, its resolved address, and the
// rest of its stderr.
func startServe(t *testing.T, args ...string) (*exec.Cmd, string, *serveStderr) {
	t.Helper()
	bin := filepath.Join(buildCommands(t), "dce-serve")
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stdout = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var addr string
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		if _, rest, ok := strings.Cut(sc.Text(), "serving on http://"); ok {
			addr = strings.TrimSpace(rest)
			break
		}
	}
	if addr == "" {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		t.Fatalf("no serving address announced (scan err %v)", sc.Err())
	}
	tail := &serveStderr{done: make(chan struct{})}
	go func() {
		defer close(tail.done)
		for sc.Scan() {
			tail.mu.Lock()
			tail.lines = append(tail.lines, sc.Text())
			tail.mu.Unlock()
		}
	}()
	return cmd, addr, tail
}

func serveGet(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

func servePost(t *testing.T, addr, path, body string) (int, string) {
	t.Helper()
	resp, err := http.Post("http://"+addr+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// serveStatus mirrors the fields of service.Status the smoke tests read.
type serveStatus struct {
	ID         string `json:"id"`
	State      string `json:"state"`
	Attempt    int    `json:"attempt"`
	SeedsTotal int    `json:"seeds_total"`
	SeedsDone  int    `json:"seeds_done"`
	Findings   int    `json:"findings"`
	Skipped    int    `json:"skipped"`
	Error      string `json:"error"`
	Checkpoint string `json:"checkpoint"`
	Snapshot   string `json:"snapshot"`
}

// pollJob polls GET /jobs/{id} until pred holds.
func pollJob(t *testing.T, addr, id string, what string, pred func(serveStatus) bool) serveStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		code, body := serveGet(t, addr, "/jobs/"+id)
		if code != 200 {
			t.Fatalf("GET /jobs/%s = %d %q", id, code, body)
		}
		var st serveStatus
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatalf("job status %q: %v", body, err)
		}
		if pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %s: %+v", id, what, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCmdServeLifecycle: submit over real TCP, run to done, fetch the
// report (byte-identical to an in-process campaign), and find the run's
// history snapshot where dce-trend expects it.
func TestCmdServeLifecycle(t *testing.T) {
	hist := t.TempDir()
	cmd, addr, _ := startServe(t, "-history", hist)
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}()

	if code, body := serveGet(t, addr, "/healthz"); code != 200 || !strings.Contains(body, `"ok"`) {
		t.Errorf("/healthz = %d %q, want ok", code, body)
	}

	code, body := servePost(t, addr, "/jobs", `{"programs": 3, "base_seed": 1}`)
	if code != 202 {
		t.Fatalf("submit = %d %q, want 202", code, body)
	}
	var st serveStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil || st.ID != "job-1" {
		t.Fatalf("submit body %q (err %v), want job-1", body, err)
	}

	st = pollJob(t, addr, "job-1", "a terminal state", func(st serveStatus) bool {
		return st.State == "done" || st.State == "failed" || st.State == "cancelled"
	})
	if st.State != "done" || st.SeedsDone != 3 {
		t.Fatalf("terminal status = %+v, want done with 3 seeds", st)
	}

	code, got := serveGet(t, addr, "/jobs/job-1/report")
	if code != 200 {
		t.Fatalf("report = %d %q", code, got)
	}
	c, err := RunCampaign(CampaignOptions{Programs: 3, BaseSeed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := Report(c); got != want {
		t.Errorf("served report differs from in-process campaign:\n--- served\n%s\n--- in-process\n%s", got, want)
	}

	// The finished job's snapshot landed in the history dir for dce-trend.
	if st.Snapshot == "" {
		t.Fatal("done job has no snapshot path")
	}
	if _, err := os.Stat(st.Snapshot); err != nil {
		t.Errorf("snapshot file: %v", err)
	}
	entries, err := os.ReadDir(hist)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !strings.HasPrefix(entries[0].Name(), "run-") {
		t.Errorf("history dir = %v, want one run-*.json snapshot", entries)
	}
}

// TestCmdServeSIGTERMDrainResume: SIGTERM mid-campaign drains gracefully
// — /healthz reports "draining", the running job checkpoints, the
// process exits 0 and writes the CPU profile it was asked for — and a
// fresh server resuming from the checkpoint finishes the job with a
// report byte-identical to an uninterrupted run.
func TestCmdServeSIGTERMDrainResume(t *testing.T) {
	work := t.TempDir()
	const spec = `{"programs": 40, "base_seed": 7, "workers": 1}`
	cpuProfile := filepath.Join(t.TempDir(), "cpu.pprof")

	cmd, addr, tail := startServe(t, "-workdir", work, "-executors", "1", "-cpuprofile", cpuProfile)
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}()

	if code, body := servePost(t, addr, "/jobs", spec); code != 202 {
		t.Fatalf("submit = %d %q, want 202", code, body)
	}
	// Let the campaign get properly underway so the drain interrupts it.
	pollJob(t, addr, "job-1", "running with progress", func(st serveStatus) bool {
		return st.State == "running" && st.SeedsDone >= 1
	})

	// The HTTP server stays up while the engine drains: /healthz must pass
	// through "draining" before the listener closes. The drain lasts only
	// as long as the seed in flight, so the poller is already polling when
	// the signal goes, and polls until the listener closes.
	polling := make(chan struct{})
	polled := make(chan []string, 1)
	go func() {
		var statuses []string
		defer func() { polled <- statuses }()
		for hammer := time.Now().Add(60 * time.Second); time.Now().Before(hammer); {
			resp, err := http.Get("http://" + addr + "/healthz")
			if err != nil {
				return // listener closed: drain finished
			}
			var health struct {
				Status string `json:"status"`
			}
			_ = json.NewDecoder(resp.Body).Decode(&health)
			resp.Body.Close()
			statuses = append(statuses, health.Status)
			if len(statuses) == 1 {
				close(polling)
			}
		}
	}()
	select {
	case <-polling:
	case statuses := <-polled:
		t.Fatalf("/healthz did not answer before SIGTERM (statuses %q)", statuses)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	statuses := <-polled
	if !slices.Contains(statuses, "draining") {
		t.Errorf("/healthz never reported draining during shutdown: %d polls answered %q in turn",
			len(statuses), slices.Compact(slices.Clone(statuses)))
	}

	<-tail.done
	if err := cmd.Wait(); err != nil {
		t.Fatalf("exit after SIGTERM = %v, want success (stderr:\n%s)", err, tail.String())
	}
	if out := tail.String(); !strings.Contains(out, "draining") || !strings.Contains(out, "drained cleanly") {
		t.Errorf("drain stderr missing announcements:\n%s", out)
	}

	// pprof profiles are gzip streams.
	if prof, err := os.ReadFile(cpuProfile); err != nil || len(prof) < 2 || prof[0] != 0x1f || prof[1] != 0x8b {
		t.Errorf("CPU profile after the drain: %d bytes, err %v; want a non-empty gzip file", len(prof), err)
	}

	ckpt := filepath.Join(work, "job-1.checkpoint.json")
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("drained job left no checkpoint: %v", err)
	}

	// Resume: a fresh server, the same spec pointed at the drained
	// checkpoint, must finish only the unrun seeds and report identically.
	cmd2, addr2, _ := startServe(t, "-workdir", work)
	defer func() {
		_ = cmd2.Process.Kill()
		_ = cmd2.Wait()
	}()
	resumeSpec := fmt.Sprintf(`{"programs": 40, "base_seed": 7, "workers": 1, "checkpoint": %q}`, ckpt)
	if code, body := servePost(t, addr2, "/jobs", resumeSpec); code != 202 {
		t.Fatalf("resume submit = %d %q, want 202", code, body)
	}
	st := pollJob(t, addr2, "job-1", "a terminal state", func(st serveStatus) bool {
		return st.State == "done" || st.State == "failed" || st.State == "cancelled"
	})
	if st.State != "done" || st.SeedsDone != 40 {
		t.Fatalf("resumed status = %+v, want done with all 40 seeds", st)
	}

	code, got := serveGet(t, addr2, "/jobs/job-1/report")
	if code != 200 {
		t.Fatalf("resumed report = %d %q", code, got)
	}
	c, err := RunCampaign(CampaignOptions{Programs: 40, BaseSeed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := Report(c); got != want {
		t.Errorf("resumed report differs from uninterrupted run:\n--- resumed\n%s\n--- uninterrupted\n%s", got, want)
	}
}
