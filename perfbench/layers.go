package main

import "fmt"

// perLayerUnits declares every per-layer metric a traced run reports,
// with its unit. A layer a workload bypasses reports 0.
var perLayerUnits = func() map[string]string {
	m := map[string]string{
		"host.nproc": "count", "host.gomaxprocs": "count", "error_ratio": "ratio",
		"trace.overhead.msgs_s": "ratio", "trace.overhead.p50_ms": "ratio",
		"trace.overhead.p99_ms": "ratio", "trace.overhead.heap_live_mib": "ratio",

		"smtp.self_us_p50": "us", "smtp.self_us_p99": "us", "smtp.sessions": "count",
		"gateway.sender_us_p50": "us", "gateway.rcpt_us_p50": "us",
		"gateway.deliver_us_p50": "us", "gateway.deliver_us_p99": "us",
		"gateway.reply_4xx": "count", "gateway.reply_5xx": "count",
		"overload.wait_us_p99": "us", "overload.shed": "count", "overload.limit_end": "count",
		"core.service_us_p50": "us", "core.service_us_p99": "us",
		"core.mta_drop_share": "ratio", "core.white_share": "ratio", "core.gray_share": "ratio",
		"core.filter_drop_share": "ratio", "core.challenges_per_kmsg": "1/kmsg", "core.quarantine_end": "count",
		"dnscache.hit_ratio": "ratio", "dnscache.lookups_per_msg": "lookups/msg", "rblcache.hit_ratio": "ratio",
		"wal.records_per_msg": "records/msg", "wal.bytes_per_msg": "B/msg", "wal.records_per_fsync": "records/fsync",
		"wal.fsyncs": "count", "wal.lag_records_p99": "records",
		"outbound.flush_ms_p50": "ms", "outbound.attempts": "count", "outbound.terminal_ratio": "ratio",
		"outbound.deferred": "count", "spool.depth_end": "count",
		"reputation.fast_path_ratio": "ratio", "reputation.entries_end": "count", "whitelist.entries_end": "count",
		"workload.record_s": "s", "trace.decode_s": "s", "workload.sim_msgs_s": "msgs/s",
		"workload.barriers_fired": "count", "workload.barriers_skipped": "count", "workload.steals": "count",
		"maillog.events_per_msg": "events/msg", "maillog.bytes_per_event": "B/event", "maillog.sink_ms_total": "ms",
		"logscan.events_s": "events/s", "logscan.allocs_per_event": "allocs/event",
		"logscan.mib_per_s": "MiB/s", "logscan.cpu_per_wall": "ratio",
		"smtp.max_rate_msgs_s": "msgs/s", "loadgen.late_ms_p99": "ms", "loadgen.backlog_max": "count",
		"runtime.allocs_per_msg": "allocs/msg", "runtime.gc_cpu_fraction": "ratio",
		"runtime.mutex_wait_ns_per_msg": "ns/msg",
	}
	for _, f := range []string{"reputation", "antivirus", "rbl"} {
		m["filters."+f+".calls"] = "count"
		m["filters."+f+".probe_us_p50"] = "us"
		m["filters."+f+".drop_ratio"] = "ratio"
	}
	for _, r := range liveLadder {
		m[fmt.Sprintf("smtp.p99_ms_at_%.0f", r)] = "ms"
	}
	for _, n := range cpuShareNames() {
		m["runtime.cpu_share."+n] = "ratio"
	}
	return m
}()
