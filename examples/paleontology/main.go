// Paleontology: strictly document-level extraction from long articles.
// Formation names appear in prose sections while physical measurements
// live in captioned tables pages later, so every relation requires
// document-scope candidates — the hardest of the paper's four domains.
// This example runs the HasMeasurement task, then demonstrates the
// development-mode loop (Section 3.3): a DevSession with iterative
// labeling-function refinement guided by holdout error analysis and
// the active-learning helper.
package main

import (
	"fmt"
	"log"

	fonduer "repro"
)

func main() {
	corpus := fonduer.PaleoCorpus(17, 20)
	train, test := corpus.Split()
	task := corpus.Tasks[0]
	gold := corpus.GoldTuples[task.Relation]
	pages := 0
	for _, d := range corpus.Docs {
		pages += d.Pages
	}
	fmt.Printf("corpus: %d articles, %d rendered pages\n\n", len(corpus.Docs), pages)

	// Development mode: add LFs one at a time and watch the holdout
	// accuracy move — the error-analysis loop of Figure 2.
	session, err := fonduer.NewDevSession(task, train)
	if err != nil {
		log.Fatal(err)
	}
	holdout := map[int]bool{}
	for _, c := range session.Candidates() {
		holdout[c.ID] = task.Gold(c)
	}
	session.SetHoldout(holdout)
	fmt.Println("development iterations:")
	for _, lf := range task.LFs {
		if _, err := session.AddLF(lf); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  + %-40s holdout accuracy %.2f\n", lf.Name, session.EstimateAccuracy())
	}
	met := session.Metrics()
	fmt.Printf("final LF metrics: coverage %.2f, overlap %.2f, conflict %.2f\n\n",
		met.Coverage, met.Overlap, met.Conflict)

	// The active-learning view: the candidates the current supervision
	// is least sure about — where the next LF would pay off.
	uncertain := fonduer.MostUncertain(session.Candidates(), session.Marginals(), 3)
	fmt.Println("most uncertain candidates (next LF targets):")
	for _, u := range uncertain {
		fmt.Printf("  p=%.2f  %v\n", u.Marginal, u.Cand.Values())
	}

	// Production mode: one full run with the finalized LFs.
	res := fonduer.Run(task, train, test, gold, fonduer.Options{Seed: 17, Epochs: 16})
	fmt.Printf("\nproduction quality: %s (%d test candidates)\n", res.Quality, res.TestCandidates)
}
