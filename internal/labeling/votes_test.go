package labeling

import (
	"reflect"
	"testing"

	"repro/internal/candidates"
)

// voteCands builds n synthetic candidates with dense IDs. The LFs used
// here only read the ID, so empty mentions are fine.
func voteCands(n int) []*candidates.Candidate {
	out := make([]*candidates.Candidate, n)
	for i := range out {
		out[i] = &candidates.Candidate{ID: i}
	}
	return out
}

func voteLFs() []LF {
	return []LF{
		{Name: "mod3", Fn: func(c *candidates.Candidate) int {
			switch c.ID % 3 {
			case 0:
				return 1
			case 1:
				return -1
			}
			return 0
		}},
		{Name: "big", Fn: func(c *candidates.Candidate) int {
			if c.ID > 100 {
				return 5 // out of range, must clamp to +1
			}
			return 0
		}},
	}
}

func TestParallelVotesMatchesApply(t *testing.T) {
	cands := voteCands(700) // > parallelShardSize so sharding engages
	lfs := voteLFs()
	want := Apply(lfs, cands)
	for _, workers := range []int{1, 3, 0} {
		votes := ParallelVotes(lfs, cands, workers)
		if len(votes) != len(want.Votes) {
			t.Fatalf("workers=%d: %d rows, want %d", workers, len(votes), len(want.Votes))
		}
		for i := range want.Votes {
			if !reflect.DeepEqual(votes[i], want.Votes[i]) {
				t.Fatalf("workers=%d: row %d differs", workers, i)
			}
		}
	}
}

func TestParallelColumnVotes(t *testing.T) {
	cands := voteCands(600)
	lf := voteLFs()[0]
	want := ParallelColumnVotes(lf, cands, 1)
	for _, workers := range []int{4, 0} {
		if got := ParallelColumnVotes(lf, cands, workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d differ", workers)
		}
	}
	for i, c := range cands {
		if want[i] != clampVote(lf.Fn(c)) {
			t.Fatalf("vote %d wrong", i)
		}
	}
}

func TestParallelVotesNoLFs(t *testing.T) {
	votes := ParallelVotes(nil, voteCands(5), 0)
	if len(votes) != 5 {
		t.Fatalf("len = %d", len(votes))
	}
	for _, row := range votes {
		if len(row) != 0 {
			t.Fatal("rows must be empty with no LFs")
		}
	}
}
