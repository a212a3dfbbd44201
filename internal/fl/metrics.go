package fl

import (
	"fmt"
	"sync"
	"time"

	"github.com/cip-fl/cip/internal/fl/robust"
	"github.com/cip-fl/cip/internal/telemetry"
)

// Metrics is the federation engine's telemetry catalogue, shared by the
// in-process Server and the TCP Coordinator so dashboards see one set of
// round metrics regardless of deployment. Construct with NewMetrics and
// attach via Server.Metrics (or Coordinator.Metrics); a nil *Metrics
// disables all recording at zero cost.
type Metrics struct {
	// RoundsTotal counts completed communication rounds.
	RoundsTotal *telemetry.Counter // fl_rounds_total
	// RoundDuration is the wall time of each communication round.
	RoundDuration *telemetry.Histogram // fl_round_duration_seconds
	// ClientsParticipating is the number of clients whose updates entered
	// the most recent aggregate.
	ClientsParticipating *telemetry.Gauge // fl_clients_participating
	// ClientsDropped counts clients excluded from rounds (all reasons).
	ClientsDropped *telemetry.Counter // fl_clients_dropped_total
	// ValidationRejections counts updates rejected by ValidateUpdate
	// (NaN/Inf values or parameter-length mismatch).
	ValidationRejections *telemetry.Counter // fl_validation_rejections_total
	// UpdateParams is the parameter count of the aggregated model.
	UpdateParams *telemetry.Gauge // fl_update_params
	// RoundWorkers is the worker-pool size used by the most recent round.
	RoundWorkers *telemetry.Gauge // fl_round_workers
	// WorkerUtilization is the fraction of the most recent round's
	// worker-seconds spent inside client training (busy / (workers·wall)).
	// Near 1.0 means the pool is saturated; low values mean stragglers or
	// too many workers for the participant count.
	WorkerUtilization *telemetry.Gauge // fl_round_worker_utilization
	// ClientTrainMillis accumulates per-client local-training wall time in
	// milliseconds across all rounds (the pool's total busy time).
	ClientTrainMillis *telemetry.Counter // fl_client_train_milliseconds_total
	// RobustTrimmed counts client contributions removed from the
	// aggregate by the robust rule (both trimmed-mean tails plus any
	// non-finite inputs a rule skipped).
	RobustTrimmed *telemetry.Counter // fl_robust_trimmed_total
	// RobustClipped counts updates whose influence was norm-clipped by
	// the clipped-mean rule.
	RobustClipped *telemetry.Counter // fl_robust_clipped_total
	// ClientsQuarantined is the number of clients currently quarantined
	// by the reputation tracker.
	ClientsQuarantined *telemetry.Gauge // fl_client_quarantined
	// CompressedUpdates counts updates that crossed the compressed wire
	// path (top-k / quantized, with error feedback).
	CompressedUpdates *telemetry.Counter // fl_compressed_updates_total
	// CompressedBytes accumulates the wire-body bytes of compressed
	// updates (what actually crossed, not the dense equivalent).
	CompressedBytes *telemetry.Counter // fl_compressed_bytes_total
	// CompressionRatio is the dense-bytes / wire-bytes ratio of the most
	// recent compressed update.
	CompressionRatio *telemetry.Gauge // fl_compression_ratio
	// RoundPeakUpdateBytes is the peak number of decoded-update bytes held
	// in aggregator memory at any instant of the most recent round: ~W ×
	// 8·params when every update folds and is released (W = the in-flight
	// window) versus cohort × 8·params when the round keeps its update
	// column for observers, reputation or a sort-based rule — the memory
	// win the streaming fold exists for, made observable.
	RoundPeakUpdateBytes *telemetry.Gauge // fl_round_peak_update_bytes
	// TreeShardsLost counts aggregation-tree subtrees (partial-forwarding
	// children) whose round contribution was lost after the accept window
	// opened — the previously silent whole-shard accuracy loss.
	TreeShardsLost *telemetry.Counter // fl_tree_shard_lost_total
	// RoundCoverage is the fraction of the most recent round's planned
	// cohort weight that actually reached the aggregate (1.0 = every
	// planned contributor delivered; degraded subtrees pull it down).
	RoundCoverage *telemetry.Gauge // fl_round_coverage_weight

	// reg backs the lazily registered per-client anomaly-score gauges
	// (fl_client_anomaly_score{client="N"}).
	reg *telemetry.Registry
	mu  sync.Mutex
	// anomaly maps client id to its registered score gauge.
	anomaly map[int]*telemetry.Gauge
}

// NewMetrics registers the federation metrics on reg. A nil reg returns
// nil, which disables recording.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		RoundsTotal: reg.Counter("fl_rounds_total",
			"Completed communication rounds."),
		RoundDuration: reg.Histogram("fl_round_duration_seconds",
			"Wall time of one communication round.", telemetry.DurationBuckets()),
		ClientsParticipating: reg.Gauge("fl_clients_participating",
			"Clients whose updates entered the most recent aggregate."),
		ClientsDropped: reg.Counter("fl_clients_dropped_total",
			"Clients excluded from rounds (timeouts, transport failures, invalid updates)."),
		ValidationRejections: reg.Counter("fl_validation_rejections_total",
			"Updates rejected by validation (NaN/Inf or length mismatch)."),
		UpdateParams: reg.Gauge("fl_update_params",
			"Parameter count of the aggregated model."),
		RoundWorkers: reg.Gauge("fl_round_workers",
			"Worker-pool size used by the most recent round."),
		WorkerUtilization: reg.Gauge("fl_round_worker_utilization",
			"Fraction of the most recent round's worker-seconds spent training clients."),
		ClientTrainMillis: reg.Counter("fl_client_train_milliseconds_total",
			"Accumulated per-client local-training wall time, in milliseconds."),
		RobustTrimmed: reg.Counter("fl_robust_trimmed_total",
			"Client contributions removed from aggregates by the robust rule."),
		RobustClipped: reg.Counter("fl_robust_clipped_total",
			"Updates whose influence was norm-clipped by the robust rule."),
		ClientsQuarantined: reg.Gauge("fl_client_quarantined",
			"Clients currently quarantined by the reputation tracker."),
		CompressedUpdates: reg.Counter("fl_compressed_updates_total",
			"Updates carried over the compressed wire path."),
		CompressedBytes: reg.Counter("fl_compressed_bytes_total",
			"Wire-body bytes of compressed updates."),
		CompressionRatio: reg.Gauge("fl_compression_ratio",
			"Dense-bytes / wire-bytes ratio of the most recent compressed update."),
		RoundPeakUpdateBytes: reg.Gauge("fl_round_peak_update_bytes",
			"Peak decoded-update bytes held in aggregator memory during the most recent round."),
		TreeShardsLost: reg.Counter("fl_tree_shard_lost_total",
			"Aggregation-tree subtrees whose contribution was lost after the round started."),
		RoundCoverage: reg.Gauge("fl_round_coverage_weight",
			"Fraction of the most recent round's planned cohort weight that reached the aggregate."),
		reg: reg,
	}
}

// RecordCompressedUpdate records one update crossing the compressed wire
// path: the bytes its compressed body occupies and the dense-equivalent
// byte count it replaced. Nil-safe.
func (m *Metrics) RecordCompressedUpdate(wireBytes, denseBytes int) {
	if m == nil {
		return
	}
	m.CompressedUpdates.Inc()
	m.CompressedBytes.Add(uint64(wireBytes))
	if wireBytes > 0 {
		m.CompressionRatio.Set(float64(denseBytes) / float64(wireBytes))
	}
}

// RecordTreeShardLost counts one aggregation subtree lost mid-round.
// Nil-safe.
func (m *Metrics) RecordTreeShardLost() {
	if m == nil {
		return
	}
	m.TreeShardsLost.Inc()
}

// RecordRoundCoverage records the fraction of planned cohort weight that
// reached the most recent round's aggregate. Nil-safe.
func (m *Metrics) RecordRoundCoverage(coverage float64) {
	if m == nil {
		return
	}
	m.RoundCoverage.Set(coverage)
}

// RecordReputation publishes the reputation tracker's current quarantine
// count and per-client anomaly scores. Per-client gauges are registered
// lazily as fl_client_anomaly_score{client="N"} — the registry's raw-name
// exposition renders that as a labeled Prometheus series. Nil-safe on
// both receiver and tracker.
func (m *Metrics) RecordReputation(r *robust.Reputation) {
	if m == nil || r == nil {
		return
	}
	m.ClientsQuarantined.Set(float64(r.QuarantinedCount()))
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, rec := range r.Records() {
		g, ok := m.anomaly[id]
		if !ok {
			g = m.reg.Gauge(fmt.Sprintf("fl_client_anomaly_score{client=%q}", fmt.Sprint(id)),
				"EWMA anomaly score of one client (labeled by client id).")
			if m.anomaly == nil {
				m.anomaly = make(map[int]*telemetry.Gauge)
			}
			m.anomaly[id] = g
		}
		g.Set(rec.Score)
	}
}

// RecordRound records one completed round: its wall time since start, how
// many updates were aggregated, how many clients were dropped, the
// model's parameter count, and the robust rule's report. Nil-safe.
func (m *Metrics) RecordRound(start time.Time, participating, dropped, params int, rep robust.Report) {
	if m == nil {
		return
	}
	m.RoundsTotal.Inc()
	m.RoundDuration.Observe(time.Since(start).Seconds())
	m.ClientsParticipating.Set(float64(participating))
	m.ClientsDropped.Add(uint64(dropped))
	m.UpdateParams.Set(float64(params))
	m.RobustTrimmed.Add(uint64(rep.Trimmed))
	m.RobustClipped.Add(uint64(rep.Clipped))
}

// RecordWorkerPool records one round's worker-pool shape: the pool size,
// the summed per-client training time (busy), and the round's wall time.
// Nil-safe.
func (m *Metrics) RecordWorkerPool(workers int, busy, wall time.Duration) {
	if m == nil {
		return
	}
	m.RoundWorkers.Set(float64(workers))
	if workers > 0 && wall > 0 {
		m.WorkerUtilization.Set(busy.Seconds() / (float64(workers) * wall.Seconds()))
	}
	m.ClientTrainMillis.Add(uint64(busy.Milliseconds()))
}

// RecordRoundPeakUpdateBytes records the peak decoded-update bytes a round
// held in aggregator memory. Nil-safe.
func (m *Metrics) RecordRoundPeakUpdateBytes(n uint64) {
	if m == nil {
		return
	}
	m.RoundPeakUpdateBytes.Set(float64(n))
}

// RecordValidationRejection counts one ValidateUpdate rejection. Nil-safe.
func (m *Metrics) RecordValidationRejection() {
	if m == nil {
		return
	}
	m.ValidationRejections.Inc()
}
