package serve

import (
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/synth"
)

// TestContainRecords drives the one failure path directly, for the
// transitions no real fault reaches in order: a trainer error marks the
// generation stuck and the next good run clears the mark; an install
// numbered out of sequence, which trainMu rules out, is such an error
// and serves nothing; a writer turn's plain error — a refusal, a
// snapshot that could not be written — is the caller's answer and not a
// fault; a writer panic is, and after it every turn and run is refused.
func TestContainRecords(t *testing.T) {
	corpus := synth.Electronics(78, 1)
	rg, err := NewRegistry(RegistryConfig{
		Resolve:     func(string, string) (core.Task, []core.GoldTuple, error) { return corpus.Tasks[0], nil, nil },
		BaseOptions: core.Options{Seed: 5, Epochs: 1, Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rg.Close()
	if _, err := rg.Create(TenantConfig{Name: "default"}); err != nil {
		t.Fatal(err)
	}
	s := rg.Get("default")
	good := func() (any, error) { return 7, nil }
	bad := func() (any, error) { return nil, errors.New("disk on fire") }

	if _, err := s.contain("trainer", "train", bad); err == nil || s.Degraded() == nil || s.Degraded().Where != "trainer" {
		t.Fatalf("failed trainer run: err %v, record %+v", err, s.Degraded())
	}
	if !s.needsTrain() {
		t.Fatal("a stuck generation is not retried")
	}
	if v, err := s.contain("trainer", "train", good); v != 7 || err != nil || s.Degraded() != nil {
		t.Fatalf("good trainer run: %v, %v, record %+v", v, err, s.Degraded())
	}
	for _, err := range []error{errClosed, fmt.Errorf("%w: earlier", errFailed)} {
		if _, got := s.contain("trainer", "train", func() (any, error) { return nil, err }); got != err || s.Degraded() != nil {
			t.Fatalf("the server's state %v went on the trainer's record: %v, %+v", err, got, s.Degraded())
		}
	}

	cur := s.CurrentView()
	skipped, err := cur.Retrain(core.RetrainConfig{Generation: cur.Generation() + 2})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.contain("trainer", "train", func() (any, error) {
		return s.submit("train", func(*core.Store) (any, error) { return s.install(skipped, time.Now()) })
	})
	if d := s.Degraded(); err == nil || d == nil || d.Where != "trainer" || s.CurrentView() != cur {
		t.Fatalf("install out of sequence: %v, record %+v, served generation %d", err, d, s.CurrentView().Generation())
	}
	if _, err := s.contain("trainer", "train", good); err != nil || s.Degraded() != nil {
		t.Fatalf("good trainer run after the refused install: %v, record %+v", err, s.Degraded())
	}

	// Writer turns run on the writer goroutine (contain reads the store).
	if _, err := s.submit("snapshot", func(*core.Store) (any, error) { return bad() }); err == nil || errors.Is(err, errFailed) || s.Degraded() != nil {
		t.Fatalf("writer turn's plain error: %v, record %+v", err, s.Degraded())
	}
	_, err = s.submit("delta", func(*core.Store) (any, error) { panic("boom") })
	if d := s.Degraded(); !errors.Is(err, errFailed) || d == nil || d.Where != "writer" {
		t.Fatalf("writer panic: %v, record %+v", err, d)
	}
	if _, err := s.submit("delta", func(*core.Store) (any, error) { t.Error("a failed tenant ran a writer turn"); return nil, nil }); !errors.Is(err, errFailed) {
		t.Fatalf("writer turn on a failed tenant = %v", err)
	}
	if _, err := s.Train(); !errors.Is(err, errFailed) || s.needsTrain() {
		t.Fatalf("retrain on a failed tenant = %v (needsTrain %v)", err, s.needsTrain())
	}
	if tr := s.Traces()[0]; tr.Kind != "delta" || tr.Err == "" {
		t.Fatalf("the fault was not filed as a failed publication: %+v", tr)
	}
}

// TestStatusFor pins the one error → status table.
func TestStatusFor(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("serve: tenant %q: %w", "x", err) }
	for _, c := range []struct {
		err  error
		want int
	}{
		{wrap(core.ErrInvalidDocument), http.StatusBadRequest},
		{wrap(errBadRequest), http.StatusBadRequest},
		{wrap(ErrUnknownTenant), http.StatusNotFound},
		{wrap(core.ErrDocumentExists), http.StatusConflict},
		{wrap(ErrTenantExists), http.StatusConflict},
		{wrap(errFailed), http.StatusServiceUnavailable},
		{wrap(errClosed), http.StatusServiceUnavailable},
		{wrap(errRegistryClosed), http.StatusServiceUnavailable},
		{errors.New("no space left on device"), http.StatusInternalServerError},
	} {
		if got := statusFor(c.err); got != c.want {
			t.Errorf("statusFor(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}
