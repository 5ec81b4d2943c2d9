package labeling

import (
	"repro/internal/candidates"
	"repro/internal/pool"
	"repro/internal/sparse"
)

// Labeling functions are pure per-candidate computations, so applying
// them is embarrassingly parallel across candidates. Every parallel
// entry point shards the candidate list into contiguous ranges
// (forShards), evaluates the LFs on each range concurrently and writes
// the clamped votes into per-candidate slots, so the votes — and the
// matrix MatrixFromVotes builds from them — are identical at any
// worker count. The Labels relation is the vote rows; a label matrix
// is materialized from them in one place.

// parallelShardSize bounds one worker's unit of label computation.
const parallelShardSize = 256

// forShards runs fn over the contiguous ranges [lo, hi) that cut n
// candidates into shards of parallelShardSize, on up to workers
// goroutines.
func forShards(n, workers int, fn func(lo, hi int)) {
	pool.Run((n+parallelShardSize-1)/parallelShardSize, workers, func(s int) {
		lo := s * parallelShardSize
		fn(lo, min(lo+parallelShardSize, n))
	})
}

// clampVote clamps a labeling function's raw return to {-1, 0, +1} —
// the single clamping rule of every path that applies LFs, so
// sequential and sharded application can never diverge.
func clampVote(v int) int8 {
	if v > 1 {
		return 1
	}
	if v < -1 {
		return -1
	}
	return int8(v)
}

// ParallelVotes evaluates every LF on every candidate and returns the
// clamped votes candidate-major (votes[i][j] is LF j's vote on
// cands[i]). This is the delta-apply primitive of the store-backed
// pipeline: the store keeps votes as its persistent Labels relation
// and materializes matrices from them positionally, so newly ingested
// documents only ever need their own candidates labeled.
func ParallelVotes(lfs []LF, cands []*candidates.Candidate, workers int) [][]int8 {
	out := make([][]int8, len(cands))
	forShards(len(cands), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := make([]int8, len(lfs))
			for j, lf := range lfs {
				row[j] = clampVote(lf.Fn(cands[i]))
			}
			out[i] = row
		}
	})
	return out
}

// ParallelColumnVotes evaluates a single LF across all candidates,
// returning the clamped vote per candidate — the store's fast path
// when one labeling function is added or edited mid-session.
func ParallelColumnVotes(lf LF, cands []*candidates.Candidate, workers int) []int8 {
	out := make([]int8, len(cands))
	forShards(len(cands), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = clampVote(lf.Fn(cands[i]))
		}
	})
	return out
}

// MatrixFromVotes materializes a LIL-backed label matrix from
// candidate-major vote rows (row i of the matrix is votes[i]),
// dropping abstains. The result is identical to the compacted matrix
// of setting each vote cell by cell, when votes came from the same LFs
// in the same candidate order.
func MatrixFromVotes(votes [][]int8, numLFs int) *Matrix {
	nnz, last := 0, -1 // last: the last row with a vote, where a matrix built by Set ends
	for i, row := range votes {
		for _, v := range row {
			if v != 0 {
				nnz++
				last = i
			}
		}
	}
	// Every row's entries are cut from one allocation; a row without
	// votes stays nil, as in a matrix built by Set.
	entries := make([]sparse.Entry, 0, nnz)
	rows := make([][]sparse.Entry, last+1)
	for i := range rows {
		first := len(entries)
		for j, v := range votes[i] {
			if v != 0 {
				entries = append(entries, sparse.Entry{Row: i, Col: j, Val: float64(v)})
			}
		}
		if len(entries) > first {
			rows[i] = entries[first:len(entries):len(entries)]
		}
	}
	return NewMatrix(sparse.LILFromRows(rows), len(votes), numLFs)
}

// ParallelApply runs every LF over every candidate with up to workers
// goroutines (<=0 means GOMAXPROCS) and materializes the label matrix
// from the votes: the contents of applying each LF to each candidate
// in turn and compacting the result. Rows
// are keyed by list position, which equals the candidate's ID under
// the dense-ID precondition the pipeline documents (core.
// RunWithCandidates: IDs dense from zero, in list order).
func ParallelApply(lfs []LF, cands []*candidates.Candidate, workers int) *Matrix {
	return MatrixFromVotes(ParallelVotes(lfs, cands, workers), len(lfs))
}
