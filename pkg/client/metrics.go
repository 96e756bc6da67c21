package client

import (
	"repro/internal/engine/obs"
	"repro/internal/server/wire"
)

// Client-side instruments, registered on the process-wide registry so
// a process embedding both a client and a server (or the harness's
// over-the-wire experiments) reports both sides of the link.
var (
	// RoundtripSeconds is the client-observed wire round trip for one
	// statement: send, execution, and full result download. Comparing
	// it with engine_server_statement_seconds isolates network cost.
	roundtripSeconds = obs.Default.Histogram("engine_client_roundtrip_seconds",
		"Client-observed statement round-trip latency over the wire.",
		obs.DurationBuckets)
	// RetriesTotal counts automatic retries of idempotent SELECTs
	// after connection loss.
	retriesTotal = obs.Default.Counter("engine_client_retries_total",
		"Statements automatically retried after connection loss.")

	// Per-code counters for server-reported statement errors. One
	// counter per typed wire code, pre-registered with a literal name
	// so dashboards can alert on a code that never flowed before the
	// first occurrence.
	serverErrBusy = obs.Default.Counter("engine_client_server_errors_busy_total",
		"Statements rejected by server admission control.")
	serverErrSema = obs.Default.Counter("engine_client_server_errors_sema_total",
		"Statements rejected during semantic analysis.")
	serverErrParse = obs.Default.Counter("engine_client_server_errors_parse_total",
		"Statements rejected with a SQL syntax error.")
	serverErrCancelled = obs.Default.Counter("engine_client_server_errors_cancelled_total",
		"Statements stopped by cancellation.")
	serverErrShutdown = obs.Default.Counter("engine_client_server_errors_shutdown_total",
		"Statements rejected because the server was draining.")
	serverErrProtocol = obs.Default.Counter("engine_client_server_errors_protocol_total",
		"Statements failed on a malformed or unexpected frame.")
	serverErrShardUnavailable = obs.Default.Counter("engine_client_server_errors_shard_unavailable_total",
		"Statements failed because a coordinator could not reach a shard.")
	serverErrInternal = obs.Default.Counter("engine_client_server_errors_internal_total",
		"Statements failed by an internal server error.")
	serverErrUnknown = obs.Default.Counter("engine_client_server_errors_unknown_total",
		"Server errors carrying a code this client build does not know.")
)

// countServerError classifies a server-reported error into the
// per-code counters above. The switch is exhaustive over the wire
// package's Code* constants — statlint's metricscontract analyzer
// fails the lint when the protocol grows a code this mapping does not
// handle, so a new code cannot silently land in the unknown bucket.
func countServerError(we *wire.Error) {
	switch we.Code {
	case wire.CodeBusy:
		serverErrBusy.Inc()
	case wire.CodeSema:
		serverErrSema.Inc()
	case wire.CodeParse:
		serverErrParse.Inc()
	case wire.CodeCancelled:
		serverErrCancelled.Inc()
	case wire.CodeShutdown:
		serverErrShutdown.Inc()
	case wire.CodeProtocol:
		serverErrProtocol.Inc()
	case wire.CodeShardUnavailable:
		serverErrShardUnavailable.Inc()
	case wire.CodeInternal:
		serverErrInternal.Inc()
	default:
		serverErrUnknown.Inc()
	}
}
