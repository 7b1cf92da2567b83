package main

// layerCounters derives the per-layer ratios of the column store, the
// transaction layer and the WAL from the process counters' deltas over
// the measured phase. A layer that did no work in the phase is left out.
func layerCounters(r *report, d counters, queries float64) {
	decoded := d["hs_colstore_blocks_decoded_total"]
	skipped := d["hs_colstore_blocks_zone_skipped_total"]
	visited := decoded + skipped + d["hs_colstore_blocks_zone_wholesale_total"]
	if visited > 0 {
		r.set("colstore.zone_skip_ratio", skipped/visited, "ratio", int(visited))
		r.set("colstore.blocks_decoded_per_query", ratio(decoded, queries), "count", int(queries))
	}
	dml := d["hs_engine_update_total"] + d["hs_engine_insert_total"] + d["hs_engine_delete_total"]
	if dml > 0 {
		r.set("txn.conflict_ratio", d["hs_txn_conflict_total"]/dml, "ratio", int(dml))
	}
	if flushes := d["hs_wal_flushes_total"]; flushes > 0 {
		r.set("wal.records_per_flush", d["hs_wal_records_total"]/flushes, "count", int(flushes))
		r.set("wal.fsync_mean_ms", 1000*d.mean("hs_wal_fsync_seconds"), "ms", int(d["hs_wal_fsync_seconds_count"]))
	}
	if n := d["hs_engine_wal_wait_seconds_count"]; n > 0 {
		r.set("engine.wal_wait_mean_ms", 1000*d.mean("hs_engine_wal_wait_seconds"), "ms", int(n))
	}
}
