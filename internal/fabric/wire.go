// The wire protocol: four JSON-over-HTTP endpoints under /v1/. The
// vocabulary follows the serve package (JSON bodies both ways, 429/409
// with Retry-After for back-pressure and conflicts), so the worker can
// reuse serve.ParseRetryAfter for every backoff decision.
//
//	POST /v1/lease    LeaseRequest → LeaseReply    claim (or re-claim) a shard
//	POST /v1/progress ProgressRequest → {}         renew the lease, report done count
//	POST /v1/report   ReportRequest → {}           deliver a finished shard's aggregates
//	GET  /v1/status   → StatusReply                observability
package fabric

import "bce/internal/population"

// Lease states returned in LeaseReply.Status.
const (
	// StatusLease: a shard was granted; run it.
	StatusLease = "lease"
	// StatusWait: every shard is leased out but the study is not done;
	// retry after the Retry-After header's delay.
	StatusWait = "wait"
	// StatusDone: every shard has reported; the worker can exit.
	StatusDone = "done"
)

// LeaseRequest asks for a shard to work on. Worker names identify
// lease ownership across restarts: a restarted worker with the same
// name immediately reclaims its old shard instead of waiting for the
// lease to expire.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseReply is the coordinator's answer.
type LeaseReply struct {
	Status string `json:"status"`
	// Shard, Lo, N and Spec are set when Status is StatusLease.
	Shard int   `json:"shard,omitempty"`
	Lo    int   `json:"lo,omitempty"`
	N     int   `json:"n,omitempty"`
	Spec  *Spec `json:"spec,omitempty"`
	// LeaseSecs is how long the lease lasts without a progress
	// renewal before the coordinator re-grants the shard.
	LeaseSecs float64 `json:"lease_secs,omitempty"`
}

// ProgressRequest renews a lease and reports how far the shard has
// folded. Sent after every folded batch, it doubles as the liveness
// heartbeat. A 409 response means the lease is lost (another worker
// owns the shard, or it already reported) and the sender must abandon
// the shard.
type ProgressRequest struct {
	Worker string `json:"worker"`
	Shard  int    `json:"shard"`
	Done   int    `json:"done"`
}

// ReportRequest delivers a completed shard's full aggregate state.
// Reports are idempotent: re-delivering a bit-identical study is
// acknowledged; delivering a *different* study for a reported shard is
// a 409 — it would mean determinism broke somewhere.
type ReportRequest struct {
	Worker string            `json:"worker"`
	Shard  int               `json:"shard"`
	Study  *population.Study `json:"study"`
}

// StatusReply summarizes coordinator state for humans and smoke tests.
type StatusReply struct {
	Shards        int      `json:"shards"`
	Idle          int      `json:"idle"`
	Leased        int      `json:"leased"`
	Done          int      `json:"done"`
	Scenarios     int      `json:"scenarios"`
	ScenariosDone int      `json:"scenarios_done"`
	Complete      bool     `json:"complete"`
	Workers       []string `json:"workers,omitempty"`
}

// errorReply is the JSON body of every non-2xx response.
type errorReply struct {
	Error string `json:"error"`
}
