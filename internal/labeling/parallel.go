package labeling

import (
	"repro/internal/candidates"
	"repro/internal/pool"
	"repro/internal/sparse"
)

// Labeling functions are pure per-candidate computations, so applying
// them is embarrassingly parallel across candidates. ParallelApply
// shards the candidate list into contiguous ranges, evaluates every LF
// on each shard concurrently, and then replays the computed labels
// into the COO log in (candidate, LF) order — exactly the write order
// of the sequential Apply, so the resulting matrix (including the log
// layout) is identical at any worker count.

// parallelShardSize bounds one worker's unit of label computation.
// Contiguous ranges keep the deterministic replay a simple in-order
// walk over shards.
const parallelShardSize = 256

// clampVote clamps a labeling function's raw return to {-1, 0, +1} —
// the single clamping rule shared by ApplyOne and both parallel
// paths, so sequential and sharded application can never diverge.
func clampVote(v int) int8 {
	if v > 1 {
		return 1
	}
	if v < -1 {
		return -1
	}
	return int8(v)
}

// ParallelApplyColumn applies a single LF to every candidate — the
// fast-update path used when a user adds or edits one LF during
// iterative development — computing the votes in parallel and
// appending them to the COO log in candidate order, matching a
// sequential loop of ApplyOne calls exactly.
func ParallelApplyColumn(m *Matrix, cands []*candidates.Candidate, col int, lf LF, workers int) {
	if pool.Workers(workers) == 1 || len(cands) <= parallelShardSize {
		for _, c := range cands {
			ApplyOne(m, c, col, lf)
		}
		return
	}
	votes := make([]int8, len(cands))
	nShards := (len(cands) + parallelShardSize - 1) / parallelShardSize
	pool.Run(nShards, workers, func(s int) {
		lo := s * parallelShardSize
		hi := lo + parallelShardSize
		if hi > len(cands) {
			hi = len(cands)
		}
		for i := lo; i < hi; i++ {
			votes[i] = clampVote(lf.Fn(cands[i]))
		}
	})
	for i, c := range cands {
		m.M.Set(c.ID, col, float64(votes[i]))
	}
}

// ParallelVotes evaluates every LF on every candidate and returns the
// clamped votes candidate-major (votes[i][j] is LF j's vote on
// cands[i]). This is the delta-apply primitive of the store-backed
// pipeline: the store keeps votes as its persistent Labels relation
// and materializes matrices from them positionally, so newly ingested
// documents only ever need their own candidates labeled.
func ParallelVotes(lfs []LF, cands []*candidates.Candidate, workers int) [][]int8 {
	out := make([][]int8, len(cands))
	if len(lfs) == 0 {
		for i := range out {
			out[i] = []int8{}
		}
		return out
	}
	nShards := (len(cands) + parallelShardSize - 1) / parallelShardSize
	pool.Run(nShards, workers, func(s int) {
		lo := s * parallelShardSize
		hi := lo + parallelShardSize
		if hi > len(cands) {
			hi = len(cands)
		}
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
	nShards := (len(cands) + parallelShardSize - 1) / parallelShardSize
	pool.Run(nShards, workers, func(s int) {
		lo := s * parallelShardSize
		hi := lo + parallelShardSize
		if hi > len(cands) {
			hi = len(cands)
		}
		for i := lo; i < hi; i++ {
			out[i] = clampVote(lf.Fn(cands[i]))
		}
	})
	return out
}

// MatrixFromVotes materializes a LIL-backed label matrix from
// candidate-major vote rows (row i of the matrix is votes[i]),
// dropping abstains. The result is identical to
// Apply(lfs, cands).Compact() when votes came from the same LFs in
// the same candidate order.
func MatrixFromVotes(votes [][]int8, numLFs int) *Matrix {
	nnz, last := 0, -1 // last: the last row with a vote, where Apply's matrix ends
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
// goroutines (<=0 means GOMAXPROCS), producing the same COO-backed
// matrix as Apply.
func ParallelApply(lfs []LF, cands []*candidates.Candidate, workers int) *Matrix {
	if pool.Workers(workers) == 1 || len(lfs) == 0 || len(cands) <= parallelShardSize {
		return Apply(lfs, cands)
	}
	nShards := (len(cands) + parallelShardSize - 1) / parallelShardSize
	// labels[s] holds the shard's computed labels, candidate-major:
	// labels[s][i*len(lfs)+j] is LF j's vote on the shard's i-th
	// candidate, already clamped to {-1, 0, +1}.
	labels := make([][]int8, nShards)
	pool.Run(nShards, workers, func(s int) {
		lo := s * parallelShardSize
		hi := lo + parallelShardSize
		if hi > len(cands) {
			hi = len(cands)
		}
		out := make([]int8, (hi-lo)*len(lfs))
		for i, c := range cands[lo:hi] {
			for j, lf := range lfs {
				out[i*len(lfs)+j] = clampVote(lf.Fn(c))
			}
		}
		labels[s] = out
	})

	// Deterministic assembly: replay shard results in candidate order,
	// mirroring Apply's (candidate, LF) write sequence.
	m := NewMatrix(sparse.NewCOO(), len(cands), len(lfs))
	for s := 0; s < nShards; s++ {
		lo := s * parallelShardSize
		n := len(labels[s]) / len(lfs)
		for i := 0; i < n; i++ {
			c := cands[lo+i]
			for j := 0; j < len(lfs); j++ {
				m.M.Set(c.ID, j, float64(labels[s][i*len(lfs)+j]))
			}
		}
	}
	return m
}
