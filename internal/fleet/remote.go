package fleet

// RemoteGateway is the fleet's hook for streaming its channel arrivals
// to a gateway that lives outside the process — the standalone ticsgate
// service (internal/gate) in production, a fake in tests. The contract
// mirrors the in-process pipeline exactly:
//
//   - IngestWave receives each wave's post-channel arrivals in a
//     deterministic order: by device index, and each device's frames in
//     transmission order. The implementation owns delivery semantics — it
//     must absorb retries idempotently, because the fleet will re-send
//     a wave after any transient transport failure.
//   - Finalize is called once, after the last wave, and returns the
//     gateway-side accounting for the report. For a gateway whose state
//     holds exactly this fleet's traffic, the summary (digest included)
//     must be byte-identical to what the in-process gateway would have
//     produced from the same arrivals — internal/gate's store is built
//     around that equivalence and TestRemoteDigestMatchesInProcess
//     holds it to the letter.
//
// With a RemoteGateway attached, Report.GatewayLog/DeviceLog return nil
// (the delivery log lives in the service) and message-trace verdicts
// are accounted remotely (OutcomeRemote) — the fleet cannot know which
// arrival won dedup without re-implementing the gateway it delegated.
type RemoteGateway interface {
	IngestWave(arrivals []Arrival) error
	Finalize() (RemoteSummary, error)
}

// RemoteSummary is what a remote gateway reports back at the end of a
// run — the fields fleet.Run needs to fill the same Report slots the
// in-process gateway fills.
type RemoteSummary struct {
	Stats  GatewayStats `json:"stats"`
	Unique int64        `json:"unique"` // distinct (device, seq) packets seen, fresh or expired
	P50Ms  float64      `json:"p50_ms"`
	P99Ms  float64      `json:"p99_ms"`
	Digest string       `json:"digest"`
}
