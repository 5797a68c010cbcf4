package worldgen

import (
	"cmp"
	"slices"
	"testing"
)

// stableTimeline is the reference order: the planned events sorted
// stably by (day, kind), as runTimeline sorted them before timeline
// made seq the last key.
func stableTimeline(pl *Plan) []event {
	events := plannedEvents(pl)
	slices.SortStableFunc(events, func(a, b event) int {
		return cmp.Or(cmp.Compare(a.day, b.day), cmp.Compare(a.kind, b.kind))
	})
	return events
}

// TestTimelineMatchesStableSort holds timeline's unstable sort by
// (day, kind, seq) to the stable sort by (day, kind).
func TestTimelineMatchesStableSort(t *testing.T) {
	for _, c := range RunAheadParams() {
		pl := NewPlan(c.Params)
		got, want := timeline(pl), stableTimeline(pl)
		if len(got) != len(want) {
			t.Fatalf("%s: %d events, reference %d", c.Name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: event %d is %+v, reference %+v", c.Name, i, got[i], want[i])
			}
		}
	}
}
