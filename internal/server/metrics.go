package server

import "repro/internal/engine/obs"

// The serving layer's instruments, registered on the process-wide
// registry so sys.metrics and the /metrics debug endpoint pick them up
// alongside the executor's counters.
var (
	// Connections counts TCP connections accepted over the server's
	// lifetime; SessionsActive is the number currently open.
	connections = obs.Default.Counter("engine_server_connections_total",
		"TCP connections accepted by the wire-protocol server.")
	sessionsActive = obs.Default.Gauge("engine_server_sessions_active",
		"Wire-protocol sessions currently open.")
	// StatementsInflight tracks statements that passed admission and
	// are executing right now.
	statementsInflight = obs.Default.Gauge("engine_server_statements_inflight",
		"Statements currently executing on behalf of remote sessions.")
	// AdmissionRejections counts statements refused with the typed
	// "server busy" error because the concurrent-statement limit and
	// its wait queue were both full.
	admissionRejections = obs.Default.Counter("engine_server_admission_rejections_total",
		"Statements rejected by admission control (busy errors).")
	// BytesSent/BytesReceived count wire-protocol frame bytes, flushed
	// once per request frame (with everything it was answered by).
	bytesSent = obs.Default.Counter("engine_server_bytes_sent_total",
		"Wire-protocol bytes written to clients.")
	bytesReceived = obs.Default.Counter("engine_server_bytes_received_total",
		"Wire-protocol bytes read from clients.")
	// StatementSeconds is the server-side latency of every request that
	// executes (Query, Exec, Summary): admission wait +
	// execution + result transmission (the full wire round trip minus
	// client-side network time).
	statementSeconds = obs.Default.Histogram("engine_server_statement_seconds",
		"Server-side statement latency including admission wait and result transmission.",
		obs.DurationBuckets)
)
