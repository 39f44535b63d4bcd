package metrics

// Campaign counter names. internal/corpus increments these, and
// harness.Progress derives the live campaign view (the heartbeat,
// /progress, /metrics' derived gauges) from them.
const (
	CounterSeedsAnalyzed = "campaign.seeds.analyzed"
	CounterSeedsRestored = "campaign.seeds.restored"
	CounterUnits         = "campaign.units"
	CounterCrashes       = "campaign.failures.crash"
	CounterTimeouts      = "campaign.failures.timeout"
	CounterMiscompiles   = "campaign.failures.miscompile"
	CounterInfeasible    = "campaign.failures.infeasible"
)

// Middle-end dirty-tracking counters. The metrics pass observer adds every
// pass instance's visited/skipped function counts here; their ratio is the
// campaign-wide pass skip rate the live campaign view shows.
const (
	CounterPassVisited = "opt.funcs.visited"
	CounterPassSkipped = "opt.funcs.skipped"
)

// HistCampaignSeed is the per-seed wall-time histogram internal/corpus
// observes; the live ETA estimate (harness.Progress) is derived from its
// mean.
const HistCampaignSeed = "campaign.seed"
