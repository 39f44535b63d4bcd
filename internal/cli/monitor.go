package cli

import (
	"flag"
	"fmt"
	"os"

	"dcelens/internal/history"
	"dcelens/internal/monitor"
)

// Monitor is the shared -serve/-history flag pair: live HTTP monitoring of
// a running campaign and longitudinal run-history snapshots. Registered the
// same way Profiling is, so every campaign-shaped binary opts in with one
// call:
//
//	mon := cli.Monitoring()
//	flag.Parse()
//	...
//	defer mon.Serve(tool, monitor.New(tool, reg, prog, events))()
//	...
//	mon.WriteSnapshot(tool, history.NewSnapshot(tool, c, reg))
type Monitor struct {
	serve   *string
	history *string
}

// Monitoring registers the monitoring flags on the default FlagSet. Call
// before flag.Parse.
func Monitoring() *Monitor {
	return &Monitor{
		serve:   flag.String("serve", "", "serve live campaign monitoring HTTP on this address (e.g. 127.0.0.1:8080; port 0 picks one)"),
		history: flag.String("history", "", "write a run-history snapshot of the finished campaign into this directory (see dce-trend)"),
	}
}

// Serving reports whether -serve was requested.
func (m *Monitor) Serving() bool { return *m.serve != "" }

// Serve starts the monitoring server when -serve was given, announces the
// bound address on stderr (port 0 resolves here), and returns the stop
// function. Without -serve it is a no-op.
func (m *Monitor) Serve(tool string, s *monitor.Server) func() {
	if *m.serve == "" {
		return func() {}
	}
	run, err := monitor.Start(*m.serve, s)
	if err != nil {
		Fail(tool, err)
	}
	fmt.Fprintf(os.Stderr, "%s: monitoring on http://%s\n", tool, run.Addr())
	return func() { _ = run.Close() }
}

// WriteSnapshot persists the run snapshot when -history was given,
// announcing the written path on stderr. Without -history it is a no-op.
func (m *Monitor) WriteSnapshot(tool string, s *history.Snapshot) {
	if *m.history == "" {
		return
	}
	path, err := s.Write(*m.history)
	if err != nil {
		Fail(tool, err)
	}
	fmt.Fprintf(os.Stderr, "%s: history snapshot %s\n", tool, path)
}
