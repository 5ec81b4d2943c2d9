package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	fonduer "repro"
)

// writeCorpus lays a synthetic corpus out on disk in the layout this
// command consumes (the same layout cmd/synthgen writes).
func writeCorpus(t *testing.T, c *fonduer.Corpus, out string) {
	t.Helper()
	docsDir := filepath.Join(out, "docs")
	goldDir := filepath.Join(out, "gold")
	for _, dir := range []string{docsDir, goldDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for i, d := range c.Docs {
		for key, ext := range map[string]string{"html": ".html", "xml": ".xml", "vdoc": ".vdoc"} {
			if body, ok := c.Sources[i][key]; ok {
				if err := os.WriteFile(filepath.Join(docsDir, d.Name+ext), []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for rel, tuples := range c.GoldTuples {
		var sb strings.Builder
		for _, tp := range tuples {
			sb.WriteString(tp.Doc)
			for _, v := range tp.Values {
				sb.WriteByte('\t')
				sb.WriteString(v)
			}
			sb.WriteByte('\n')
		}
		if err := os.WriteFile(filepath.Join(goldDir, rel+".tsv"), []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreFlagRoundTrip is the command-level acceptance test for
// -store: the first invocation parses, extracts and snapshots the
// session; the second resumes from the snapshot — provably without
// re-parsing, because the corpus sources are deleted in between — and
// produces a byte-identical knowledge-base TSV.
func TestStoreFlagRoundTrip(t *testing.T) {
	base := t.TempDir()
	corpusDir := filepath.Join(base, "corpus")
	storeDir := filepath.Join(base, "store")
	out1 := filepath.Join(base, "out1")
	out2 := filepath.Join(base, "out2")
	writeCorpus(t, fonduer.ElectronicsCorpus(3, 8), corpusDir)

	const rel = "HasCollectorCurrent"
	if err := run(corpusDir, "electronics", rel, 0.5, 2, 1, out1, storeDir, ""); err != nil {
		t.Fatal(err)
	}
	kb1, err := os.ReadFile(filepath.Join(out1, rel+".tsv"))
	if err != nil {
		t.Fatal(err)
	}

	// Remove the document sources: the resumed run must not need them.
	if err := os.RemoveAll(filepath.Join(corpusDir, "docs")); err != nil {
		t.Fatal(err)
	}
	if err := run(corpusDir, "electronics", rel, 0.5, 2, 1, out2, storeDir, ""); err != nil {
		t.Fatalf("resumed run (without corpus sources): %v", err)
	}
	kb2, err := os.ReadFile(filepath.Join(out2, rel+".tsv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(kb1) != string(kb2) {
		t.Fatalf("resumed KB differs from the original\nfirst:\n%s\nsecond:\n%s", kb1, kb2)
	}
	if len(kb1) == 0 || !strings.HasPrefix(string(kb1), "#"+rel) {
		t.Fatalf("unexpected KB output: %q", kb1)
	}
}

// TestStoreFlagFreshRunMatchesStoreless checks the -store path does
// not change the extraction result itself: with identical inputs, a
// storeless run and a store-building run write the same KB TSV.
func TestStoreFlagFreshRunMatchesStoreless(t *testing.T) {
	base := t.TempDir()
	corpusDir := filepath.Join(base, "corpus")
	writeCorpus(t, fonduer.ElectronicsCorpus(4, 8), corpusDir)

	const rel = "HasCollectorCurrent"
	outPlain := filepath.Join(base, "plain")
	outStore := filepath.Join(base, "stored")
	if err := run(corpusDir, "electronics", rel, 0.5, 2, 1, outPlain, "", ""); err != nil {
		t.Fatal(err)
	}
	if err := run(corpusDir, "electronics", rel, 0.5, 2, 1, outStore, filepath.Join(base, "store"), ""); err != nil {
		t.Fatal(err)
	}
	kbPlain, err := os.ReadFile(filepath.Join(outPlain, rel+".tsv"))
	if err != nil {
		t.Fatal(err)
	}
	kbStore, err := os.ReadFile(filepath.Join(outStore, rel+".tsv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(kbPlain) != string(kbStore) {
		t.Fatalf("store-backed KB differs from storeless KB\nplain:\n%s\nstore:\n%s", kbPlain, kbStore)
	}
}
