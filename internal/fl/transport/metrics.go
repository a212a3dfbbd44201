package transport

import (
	"github.com/cip-fl/cip/internal/telemetry"
)

// Metrics is the wire-layer telemetry catalogue. Construct with
// NewMetrics and attach via Coordinator.Metrics (server side) or
// RetryConfig.Metrics (client side); a nil *Metrics disables all
// recording at zero cost.
type Metrics struct {
	// ConnsAccepted counts client connections accepted into the roster
	// (after a valid, non-duplicate hello).
	ConnsAccepted *telemetry.Counter // transport_conns_accepted_total
	// DecodeBytes counts inbound bytes consumed through the byte-budgeted
	// reader (hellos, updates and partials).
	DecodeBytes *telemetry.Counter // transport_decode_bytes_total
	// DecodeFailures counts inbound hellos, updates and partials that
	// failed to decode at the connection level, including budget
	// overruns.
	DecodeFailures *telemetry.Counter // transport_decode_failures_total
	// RetryAttempts counts client dial/handshake retries (attempts beyond
	// each session's first).
	RetryAttempts *telemetry.Counter // transport_retry_attempts_total
	// StragglersDropped counts clients dropped for missing the round
	// deadline.
	StragglersDropped *telemetry.Counter // transport_stragglers_dropped_total
	// Rejoins counts clients readmitted into a resumed federation with a
	// valid session token after a coordinator restart.
	Rejoins *telemetry.Counter // transport_rejoins_total
	// TxBytes counts outbound bytes written to clients (welcomes, round
	// broadcasts and done frames).
	TxBytes *telemetry.Counter // transport_tx_bytes_total
	// RoundBytes is the total wire bytes (rx + tx) of the most recent
	// round — the quantity the compression work drives down.
	RoundBytes *telemetry.Gauge // transport_round_bytes
	// CompressedUpdates counts updates received in a compressed (top-k /
	// quantized) wire shape.
	CompressedUpdates *telemetry.Counter // transport_compressed_updates_total
	// InflightUpdates is the number of client exchanges currently admitted
	// into the streaming fold window (bounded by MaxInflightUpdates; pairs
	// with fl_round_peak_update_bytes to make the constant-memory claim
	// observable).
	InflightUpdates *telemetry.Gauge // transport_inflight_updates
	// Partials counts leaf partials accepted into root aggregates.
	Partials *telemetry.Counter // transport_partials_total
}

// NewMetrics registers the transport metrics on reg. A nil reg returns
// nil, which disables recording.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		ConnsAccepted: reg.Counter("transport_conns_accepted_total",
			"Client connections accepted into the roster."),
		DecodeBytes: reg.Counter("transport_decode_bytes_total",
			"Inbound bytes consumed through the byte-budgeted reader."),
		DecodeFailures: reg.Counter("transport_decode_failures_total",
			"Inbound messages that failed to decode, including budget overruns."),
		RetryAttempts: reg.Counter("transport_retry_attempts_total",
			"Client dial/handshake retries beyond the first attempt."),
		StragglersDropped: reg.Counter("transport_stragglers_dropped_total",
			"Clients dropped for missing the round deadline."),
		Rejoins: reg.Counter("transport_rejoins_total",
			"Clients readmitted with a session token after a coordinator restart."),
		TxBytes: reg.Counter("transport_tx_bytes_total",
			"Outbound bytes written to clients."),
		RoundBytes: reg.Gauge("transport_round_bytes",
			"Total wire bytes (rx + tx) of the most recent round."),
		CompressedUpdates: reg.Counter("transport_compressed_updates_total",
			"Updates received in a compressed wire shape."),
		InflightUpdates: reg.Gauge("transport_inflight_updates",
			"Client exchanges currently admitted into the streaming fold window."),
		Partials: reg.Counter("transport_partials_total",
			"Leaf partials accepted into root aggregates."),
	}
}

// noMetrics stands in for a nil *Metrics: its counters and gauges are nil,
// and telemetry records nothing through nil ones.
var noMetrics Metrics

// or returns m, or noMetrics when m is nil.
func (m *Metrics) or() *Metrics {
	if m == nil {
		return &noMetrics
	}
	return m
}
