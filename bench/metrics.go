package main

// perLayer is every per-layer metric the traced run prints, by module.
// They carry no bound: they are how an end-to-end change is attributed,
// not what is gated. README.md lists which end-to-end metric each is
// expected to move, and on which workload.
var perLayer = []metricDef{
	// client: the harness's own side of the wire.
	{Name: "client.avail.rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.avail.p99_us", Unit: "us", Better: "lower"},
	{Name: "client.avail.self_us", Unit: "us", Better: "lower"},
	{Name: "client.status.rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.status.p99_us", Unit: "us", Better: "lower"},
	{Name: "client.status.self_us", Unit: "us", Better: "lower"},
	{Name: "client.classify.rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.classify.p99_us", Unit: "us", Better: "lower"},
	{Name: "client.classify.self_us", Unit: "us", Better: "lower"},
	{Name: "client.conn_reuse_ratio", Unit: "ratio", Better: "higher"},
	{Name: "client.req_count", Unit: "count", Better: "higher"},
	{Name: "client.fail_count", Unit: "count", Better: "lower"},
	{Name: "client.sse.delivery_p99_ms", Unit: "ms", Better: "lower"},

	// service: wrapper, gate, caches, coalescing, encode.
	{Name: "service.avail.handler_us", Unit: "us", Better: "lower"},
	{Name: "service.avail.self_us", Unit: "us", Better: "lower"},
	{Name: "service.status.handler_us", Unit: "us", Better: "lower"},
	{Name: "service.status.self_us", Unit: "us", Better: "lower"},
	{Name: "service.classify.handler_us", Unit: "us", Better: "lower"},
	{Name: "service.classify.self_us", Unit: "us", Better: "lower"},
	{Name: "service.new_ms", Unit: "ms", Better: "lower"},
	{Name: "service.start_ms", Unit: "ms", Better: "lower"},
	{Name: "service.cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "service.cache.evictions", Unit: "count", Better: "lower"},
	{Name: "service.negcache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "service.flight.leaders", Unit: "count", Better: "lower"},
	{Name: "service.flight.coalesced", Unit: "count", Better: "higher"},
	{Name: "service.admission.rejected", Unit: "count", Better: "lower"},
	{Name: "service.batch.handler_lines_per_s", Unit: "1/s", Better: "higher"},

	// core: the study stages and the per-link calls the server makes.
	{Name: "core.collect_ms", Unit: "ms", Better: "lower"},
	{Name: "core.dataset_stats_ms", Unit: "ms", Better: "lower"},
	{Name: "core.live_check_ms", Unit: "ms", Better: "lower"},
	{Name: "core.archive_analysis_ms", Unit: "ms", Better: "lower"},
	{Name: "core.temporal_ms", Unit: "ms", Better: "lower"},
	{Name: "core.spatial_ms", Unit: "ms", Better: "lower"},
	{Name: "core.run_other_ms", Unit: "ms", Better: "lower"},
	{Name: "core.checklive_us", Unit: "us", Better: "lower"},
	{Name: "core.classifylink_us", Unit: "us", Better: "lower"},
	{Name: "core.classifyall_links_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.stream_ordered_ns", Unit: "ns", Better: "lower"},

	{Name: "wikimedia.history_of_us", Unit: "us", Better: "lower"},
	{Name: "wikimedia.dead_links_us", Unit: "us", Better: "lower"},
	{Name: "urlutil.edit_distance_ns", Unit: "ns", Better: "lower"},

	// archive: availability and CDX lookups, prefilter, memo.
	{Name: "archive.domain_urls_us", Unit: "us", Better: "lower"},
	{Name: "archive.query_us", Unit: "us", Better: "lower"},
	{Name: "archive.query_inmem_us", Unit: "us", Better: "lower"},
	{Name: "archive.cdx_count_us", Unit: "us", Better: "lower"},
	{Name: "archive.cdx_list_us", Unit: "us", Better: "lower"},
	{Name: "archive.count_in_directory_us", Unit: "us", Better: "lower"},
	{Name: "archive.count_on_hostname_us", Unit: "us", Better: "lower"},
	{Name: "archive.might_have_captures_ns", Unit: "ns", Better: "lower"},
	{Name: "archive.freeze_ms", Unit: "ms", Better: "lower"},
	{Name: "archive.prefilter.definite_no_ratio", Unit: "ratio", Better: "higher"},
	{Name: "archive.memo.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "archive.memo.evictions", Unit: "count", Better: "lower"},

	// the live half.
	{Name: "fetch.fetch_us", Unit: "us", Better: "lower"},
	{Name: "fetch.fetches", Unit: "count", Better: "lower"},
	{Name: "simweb.roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "softerror.check_us", Unit: "us", Better: "lower"},

	// set-up and cold start.
	{Name: "persist.save_paged_s", Unit: "s", Better: "lower"},
	{Name: "persist.file_mb", Unit: "MB", Better: "lower"},
	{Name: "persist.open_paged_ms", Unit: "ms", Better: "lower"},
	{Name: "persist.verify_paged_ms", Unit: "ms", Better: "lower"},
	{Name: "worldgen.generate_s", Unit: "s", Better: "lower"},
	{Name: "worldgen.generate_flaky_s", Unit: "s", Better: "lower"},

	// the write path.
	{Name: "monitor.watch_ms", Unit: "ms", Better: "lower"},
	{Name: "monitor.tick_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "monitor.edit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "monitor.checks_per_s", Unit: "1/s", Better: "higher"},
	{Name: "monitor.check_us", Unit: "us", Better: "lower"},
	{Name: "monitor.flips", Unit: "count", Better: "higher"},
	{Name: "monitor.subscribers_dropped", Unit: "count", Better: "lower"},
	{Name: "monitor.feed_dropped", Unit: "count", Better: "lower"},
	{Name: "journal.append_us", Unit: "us", Better: "lower"},
	{Name: "journal.bytes_per_flip", Unit: "bytes", Better: "lower"},
	{Name: "journal.replay_ms", Unit: "ms", Better: "lower"},

	// the fleet.
	{Name: "shard.ring.owner_ns", Unit: "ns", Better: "lower"},
	{Name: "shard.router.handler_us", Unit: "us", Better: "lower"},
	{Name: "shard.hop_us", Unit: "us", Better: "lower"},
	{Name: "shard.scatter.leg_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.batch.lines_per_s", Unit: "1/s", Better: "higher"},
	{Name: "shard.router.degraded", Unit: "count", Better: "lower"},

	// federation: function depth only until a federated workload exists.
	{Name: "federation.query_identity_us", Unit: "us", Better: "lower"},
	{Name: "federation.query_3member_us", Unit: "us", Better: "lower"},
	{Name: "federation.merged_snapshots_us", Unit: "us", Better: "lower"},
	{Name: "federation.hedge_fired_ratio", Unit: "ratio", Better: "lower"},

	// reading aids: machine drift and what tracing costs.
	{Name: "host.calib_ns", Unit: "ns", Better: "lower"},
	{Name: "host.nproc", Unit: "count", Better: "higher"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
}
