package obs

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"sync/atomic"
)

// Structured JSON logging: one leveled slog logger shared by the
// whole process, configured once from the binary's -log-level flag.
// The library default is Warn so tests and embedders stay quiet;
// binaries call InitLogging("info", os.Stderr) (the flag default) to
// turn on the operational lines — one per mutation, one per slow
// filtered read, one per lifecycle event.

var (
	logLevel  slog.LevelVar // defaults to Info; the default logger below starts at Warn
	curLogger atomic.Pointer[slog.Logger]
)

func init() {
	logLevel.Set(slog.LevelWarn)
	curLogger.Store(slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: &logLevel})))
}

// ParseLevel maps a -log-level flag value to a slog level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("obs: unknown log level %q (want debug, info, warn or error)", s)
	}
}

// InitLogging installs the process logger: structured JSON lines to w
// (os.Stderr when nil) at the given level. Called once from main;
// safe to call again (tests redirect output).
func InitLogging(level string, w io.Writer) error {
	lv, err := ParseLevel(level)
	if err != nil {
		return err
	}
	if w == nil {
		w = os.Stderr
	}
	logLevel.Set(lv)
	curLogger.Store(slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: &logLevel})))
	return nil
}

// Log returns the process logger. Callers attach context with the
// usual slog key/value pairs; the logger is safe for concurrent use.
func Log() *slog.Logger { return curLogger.Load() }
