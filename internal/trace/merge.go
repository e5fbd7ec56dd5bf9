package trace

import "sort"

// MergeShards folds per-channel shard tracers (NewShard) back into t as
// one globally time-ordered event stream. The merge is deterministic:
// shard streams are concatenated in channel order and stable-sorted by
// cycle, so events of one cycle appear in channel order and events within
// one shard keep their recording order. That order (and each shard's own
// buffer cap) defines a multi-channel log: recording every channel into one
// tracer would interleave a cycle's arrivals by core instead of grouping
// them by channel, and change the JSONL bytes.
//
// Each KindBatch event's per-thread counts follow it through the merge
// (shards number their batches independently; the Channel stamp plus the
// batch index identify a batch in the merged stream). The parent tracer's
// buffer cap applies to the merged stream: overflow is cut from the tail
// of the sorted order and counted as dropped, like any other overflow.
//
// shards must be indexed by channel (shards[ch].channel == ch). t must be
// bound; any events t recorded directly are discarded in favor of the
// shard streams.
func (t *Tracer) MergeShards(shards []*Tracer) {
	total := 0
	for _, sh := range shards {
		total += len(sh.events)
		t.dropped += sh.dropped
	}
	merged := make([]Event, 0, total)
	for _, sh := range shards {
		merged = append(merged, sh.events...)
	}
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].Cycle < merged[j].Cycle })
	if len(merged) > t.cfg.MaxEvents {
		t.dropped += int64(len(merged) - t.cfg.MaxEvents)
		merged = merged[:t.cfg.MaxEvents]
	}
	// Re-derive the per-thread batch shapes in merged KindBatch order: the
	// i-th KindBatch event of shard ch is that shard's i-th batchPT entry.
	nextPT := make([]int, len(shards))
	var batchPT [][]int32
	for _, ev := range merged {
		if ev.Kind != KindBatch {
			continue
		}
		sh := shards[ev.Channel]
		batchPT = append(batchPT, sh.batchPT[nextPT[ev.Channel]])
		nextPT[ev.Channel]++
	}
	t.events = merged
	t.batchPT = batchPT
}
