// Command predictd replays a PLR database through the online
// prediction pipeline and reports accuracy — the operational loop of
// image-guided dynamic radiation treatment: at each evaluation point
// it forms a stability-driven dynamic query from the history, retrieves
// similar subsequences, and predicts the position delta seconds ahead.
//
// Usage:
//
//	motiongen -o cohort.json
//	predictd -db cohort.json -delta 200ms -queries 20
//
// Output is structured (log/slog). With -pprof ADDR the run also
// serves /debug/pprof/ and /metrics on ADDR for profiling long
// replays; every run ends with a metrics summary (candidate pruning
// counters, search latencies) from the shared registry.
package main

import (
	"flag"
	"log/slog"
	"net/http"
	"os"
	"time"

	"stsmatch/internal/core"
	"stsmatch/internal/obs"
	"stsmatch/internal/store"
)

func main() {
	dbPath := flag.String("db", "cohort.json", "PLR database (from motiongen or segmenter)")
	delta := flag.Duration("delta", 200*time.Millisecond, "prediction horizon")
	queries := flag.Int("queries", 12, "evaluation points per stream")
	eps := flag.Float64("eps", core.DefaultParams().DistThreshold, "distance threshold")
	theta := flag.Float64("theta", core.DefaultParams().StabilityThreshold, "stability threshold")
	verbose := flag.Bool("v", false, "print every prediction")
	adapt := flag.Float64("adapt", 0, "adapt epsilon online to this target coverage (0 disables)")
	pprofAddr := flag.String("pprof", "", "serve /debug/pprof/ and /metrics on this address (empty disables)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		slog.Error("bad -log-level", slog.Any("err", err))
		os.Exit(1)
	}
	obs.InitLogging(os.Stdout, level, false)
	log := obs.Logger("predictd")
	defer func() { log.Info("metrics summary", obs.SummaryAttrs(obs.Default())...) }()

	if *pprofAddr != "" {
		mux := http.NewServeMux()
		obs.AttachPprof(mux)
		mux.Handle("GET /metrics", obs.Default().Handler())
		go func() {
			ds := &http.Server{Addr: *pprofAddr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
			if err := ds.ListenAndServe(); err != nil {
				log.Warn("pprof server stopped", slog.Any("err", err))
			}
		}()
		log.Info("pprof enabled", slog.String("addr", *pprofAddr))
	}

	f, err := os.Open(*dbPath)
	if err != nil {
		fatal(log, err)
	}
	db, err := store.ReadAny(f)
	f.Close()
	if err != nil {
		fatal(log, err)
	}
	db.EnableIndexes()

	params := core.DefaultParams()
	params.DistThreshold = *eps
	params.StabilityThreshold = *theta
	m, err := core.NewMatcher(db, params)
	if err != nil {
		fatal(log, err)
	}

	opts := core.DefaultEvalOptions()
	opts.Deltas = []float64{delta.Seconds()}
	opts.QueriesPerStream = *queries

	if *adapt > 0 {
		runAdaptive(log, m, opts, *adapt)
		return
	}
	if *verbose {
		runVerbose(log, m, opts)
		return
	}

	start := time.Now()
	res, err := m.Evaluate(opts)
	if err != nil {
		fatal(log, err)
	}
	d := res.PerDelta[0]
	log.Info("database",
		slog.Int("patients", db.NumPatients()),
		slog.Int("streams", len(db.Streams())),
		slog.Int("vertices", db.NumVertices()))
	log.Info("evaluation",
		slog.Duration("horizon", *delta),
		slog.Int("attempts", d.Attempts),
		slog.Int("predictions", d.Predictions),
		slog.Float64("coveragePct", 100*d.Coverage()),
		slog.Float64("meanErrorMM", d.MeanError()),
		slog.Float64("sdErrorMM", d.Err.StdDev()),
		slog.Float64("maxErrorMM", d.Err.Max()))
	log.Info("queries",
		slog.Float64("meanLenVertices", res.QueryLen.Mean()),
		slog.Int("stable", res.StableQueries),
		slog.Int("total", res.TotalQueries))
	elapsed := time.Since(start).Seconds()
	log.Info("timing",
		slog.Float64("totalSeconds", elapsed),
		slog.Float64("msPerEvalPoint", 1000*elapsed/float64(max(d.Attempts, 1))))
}

// runAdaptive replays the database with the online epsilon controller
// (the paper's "dynamically adjust their values during online
// procedures" future work) and reports where it settles: the same replay
// as the evaluation, retrieving under the controller's threshold.
func runAdaptive(log *slog.Logger, m *core.Matcher, opts core.EvalOptions, target float64) {
	ctl, err := core.NewCoverageController(target, m.Params.DistThreshold,
		m.Params.DistThreshold/8, m.Params.DistThreshold*4)
	if err != nil {
		fatal(log, err)
	}
	var errSum float64
	var predicted int
	_, err = m.Replay(opts,
		func(q core.Query) ([]core.Match, error) { return ctl.FindSimilar(m, q) },
		func(a core.Attempt) {
			ctl.Observe(a.Predicted)
			if a.Predicted {
				errSum += a.AbsErr
				predicted++
			}
		})
	if err != nil {
		fatal(log, err)
	}
	log.Info("epsilon settled",
		slog.Float64("targetCoveragePct", 100*target),
		slog.Float64("achievedCoveragePct", 100*ctl.Coverage()),
		slog.Int("attempts", ctl.Attempts()),
		slog.Float64("epsilonSettled", ctl.Epsilon()),
		slog.Float64("epsilonStart", m.Params.DistThreshold))
	if predicted > 0 {
		log.Info("adaptive accuracy",
			slog.Float64("meanErrorMM", errSum/float64(predicted)),
			slog.Int("scoredPredictions", predicted))
	}
}

// runVerbose is the evaluation's replay with each prediction logged as it
// would stream during treatment.
func runVerbose(log *slog.Logger, m *core.Matcher, opts core.EvalOptions) {
	_, err := m.Replay(opts, nil, func(a core.Attempt) {
		attrs := []any{
			slog.String("session", a.Stream.SessionID),
			slog.Float64("t", a.Query.Now),
			slog.Int("queryVertices", len(a.Query.Seq)),
			slog.Bool("stable", a.Info.Stable),
		}
		if !a.Predicted {
			log.Info("no prediction", attrs...)
			return
		}
		log.Info("prediction", append(attrs,
			slog.Float64("predictedMM", a.Pred.Pos[0]),
			slog.Float64("truthMM", a.Truth[0]),
			slog.Float64("errorMM", a.AbsErr),
			slog.Int("matches", a.Pred.NumMatches))...)
	})
	if err != nil {
		fatal(log, err)
	}
}

func fatal(log *slog.Logger, err error) {
	log.Error("fatal", slog.Any("err", err))
	os.Exit(1)
}
