package obs

// Canonical metric names. Producers register under these so the /statusz
// builder and tests can find series without stringly-typed drift.
const (
	// Engine.
	MetricOperators  = "engine_operators"
	MetricThreads    = "engine_threads"
	MetricQueues     = "engine_queues"
	MetricUptime     = "engine_uptime_seconds"
	MetricSinkTuples = "engine_sink_tuples_total"
	MetricPanics     = "engine_operator_panics_total"
	MetricQueueDepth = "engine_queue_depth"
	MetricLatency    = "engine_latency_seconds"

	// Coordinator.
	MetricSettled = "coordinator_settled"

	// Work-stealing scheduler.
	MetricSchedLocalPushes  = "sched_local_pushes_total"
	MetricSchedLocalPops    = "sched_local_pops_total"
	MetricSchedSteals       = "sched_steals_total"
	MetricSchedStolenTuples = "sched_stolen_tuples_total"
	MetricSchedOverflows    = "sched_overflows_total"
	MetricSchedInjected     = "sched_injected_total"
	MetricSchedParks        = "sched_parks_total"
	MetricSchedWakes        = "sched_wakes_total"
	MetricSchedFusedBatches = "sched_fused_batches_total"
	MetricSchedFusedTuples  = "sched_fused_tuples_total"

	// Supervision.
	MetricSupQuarantines = "supervision_quarantines_total"
	MetricSupReleases    = "supervision_releases_total"
	MetricSupDropped     = "supervision_dropped_total"
	MetricSupActive      = "supervision_quarantined"

	// Per-operator sampling.
	MetricOpExec      = "op_exec_seconds"
	MetricOpQueueWait = "op_queue_wait_seconds"

	// Transport.
	MetricTransportTuples      = "transport_tuples_total"
	MetricTransportFrames      = "transport_frames_total"
	MetricTransportBytes       = "transport_bytes_total"
	MetricTransportDropped     = "transport_dropped_total"
	MetricTransportFlushes     = "transport_flushes_total"
	MetricTransportRetransmits = "transport_retransmits_total"
	MetricTransportReconnects  = "transport_reconnects_total"
	MetricTransportUnacked     = "transport_unacked"
	MetricTransportDups        = "transport_dups_dropped_total"
	MetricTransportResumes     = "transport_resumes_total"
	// MetricTransportUnackedBytes is the block memory an export's log is
	// holding for replay right now — the retransmit window in bytes.
	MetricTransportUnackedBytes = "transport_unacked_bytes"
	// MetricTransportDrainSize is the histogram of tuples per sealed wire
	// frame. The name is kept from when it
	// counted staging-ring drains: dashboards and /statusz read it.
	MetricTransportDrainSize = "transport_drain_size"

	// Watchdog.
	MetricWatchdogHealthy  = "watchdog_healthy"
	MetricWatchdogFrozen   = "watchdog_frozen"
	MetricWatchdogTrips    = "watchdog_trips_total"
	MetricWatchdogRecovers = "watchdog_recovers_total"

	// Cluster width and migration.
	MetricClusterWidthMin       = "cluster_width_min"
	MetricClusterWidthMax       = "cluster_width_max"
	MetricClusterWidthStep      = "cluster_width_step"
	MetricClusterWidthDesired   = "cluster_width_desired"
	MetricClusterWidthAllocated = "cluster_width_allocated"
	MetricClusterWidthPending   = "cluster_width_pending"
	MetricClusterGeneration     = "cluster_generation"
	MetricClusterMigStarted     = "cluster_migrations_started_total"
	MetricClusterMigCompleted   = "cluster_migrations_completed_total"
	MetricClusterMigAborted     = "cluster_migrations_aborted_total"
	MetricClusterReplayed       = "cluster_replayed_tuples_total"

	// Checkpointing.
	MetricCkptTotal     = "checkpoint_total"
	MetricCkptErrors    = "checkpoint_errors_total"
	MetricCkptSkipped   = "checkpoint_skipped_total"
	MetricCkptPressure  = "checkpoint_pressure_cuts_total"
	MetricCkptRestores  = "checkpoint_restores_total"
	MetricCkptLastBytes = "checkpoint_last_bytes"
	MetricCkptWatermark = "checkpoint_watermark"
	MetricCkptEpoch     = "checkpoint_epoch"
	MetricCkptDuration  = "checkpoint_duration_seconds"
	MetricCkptBytes     = "checkpoint_bytes"
	MetricCkptDirtyKeys = "checkpoint_dirty_keys"
)

// RegisterSettled registers the coordinator's settled gauge on r. Every
// coordinator owner (runtime, PE job, streamrun's single-PE path) goes
// through here so the series keeps one name and help string.
func RegisterSettled(r *Registry, settled func() bool) {
	r.GaugeFunc(MetricSettled, "Whether the elastic coordinator has settled (1) or is still adapting (0).", func() float64 {
		if settled() {
			return 1
		}
		return 0
	})
}
