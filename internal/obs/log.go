package obs

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// InitLogging installs a process-wide slog default handler writing to
// w at the given level. asJSON selects JSON lines (for log shippers)
// over the human-readable text handler. It is safe to call more than
// once; the last call wins.
func InitLogging(w io.Writer, level slog.Level, asJSON bool) {
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler
	if asJSON {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	slog.SetDefault(slog.New(h))
}

// ParseLevel converts a -log-level flag value ("debug", "info",
// "warn", "error") to a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obs: unknown log level %q", s)
}

// Logger returns a component-scoped structured logger. Components are
// stable short names ("server", "streamd", "segmenter") that make one
// process's interleaved logs filterable.
func Logger(component string) *slog.Logger {
	return slog.Default().With(slog.String("component", component))
}

// SummaryAttrs flattens the registry into slog attributes, one per
// metric point, for the per-run metrics summary the daemons log on
// exit. Zero-valued points are skipped to keep the summary readable.
func SummaryAttrs(r *Registry) []any {
	var attrs []any
	for _, p := range r.Gather() {
		if p.Value == 0 {
			continue
		}
		attrs = append(attrs, slog.Float64(p.Name, p.Value))
	}
	return attrs
}
