package metrics

import "strconv"

// Scheduler occupancy counters, fed by the corpus layer's sched probe on
// wall-clock registries (deterministic registries skip them — occupancy is
// a pure wall-clock quantity). harness.Progress derives per-worker
// occupancy for /progress and /metrics from the per-worker counters.
const (
	CounterSchedBusy = "sched.workers.busy_ns"
	CounterQueueWait = "sched.queue.wait_ns"
	CounterSeqStall  = "sched.seq.stall_ns"
)

// WorkerBusyCounter names worker w's cumulative busy-time counter.
func WorkerBusyCounter(w int) string {
	return "sched.worker." + strconv.Itoa(w) + ".busy_ns"
}
