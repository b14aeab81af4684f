package dataset

import (
	"reflect"
	"testing"

	"stsmatch/internal/fsm"
	"stsmatch/internal/signal"
)

func smallCohort() signal.CohortConfig {
	cfg := signal.DefaultCohort()
	cfg.NumPatients = 4
	cfg.SessionsPer = 2
	cfg.SessionDur = 30
	return cfg
}

func TestBuildPopulatesDB(t *testing.T) {
	db, cohort, err := Build(smallCohort(), fsm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if db.NumPatients() != 4 {
		t.Fatalf("patients = %d", db.NumPatients())
	}
	if len(cohort) != 4 {
		t.Fatalf("cohort = %d", len(cohort))
	}
	for _, pd := range cohort {
		p := db.Patient(pd.Profile.ID)
		if p == nil {
			t.Fatalf("patient %s missing from db", pd.Profile.ID)
		}
		if p.Info.Class != pd.Profile.Class.String() {
			t.Errorf("class mismatch for %s", pd.Profile.ID)
		}
		if p.Info.Age != pd.Profile.Age || p.Info.TumorSite != pd.Profile.TumorSite {
			t.Errorf("covariates lost for %s", pd.Profile.ID)
		}
		if len(p.Streams) != 2 {
			t.Errorf("%s streams = %d", pd.Profile.ID, len(p.Streams))
		}
		for _, st := range p.Streams {
			if st.Len() < 10 {
				t.Errorf("stream %s suspiciously short: %d vertices", st.SessionID, st.Len())
			}
			if err := st.Seq().Validate(); err != nil {
				t.Errorf("stream %s invalid: %v", st.SessionID, err)
			}
		}
	}
}

func TestBuildRejectsBadConfigs(t *testing.T) {
	bad := smallCohort()
	bad.NumPatients = 0
	if _, _, err := Build(bad, fsm.DefaultConfig()); err == nil {
		t.Error("bad cohort accepted")
	}
	badSeg := fsm.DefaultConfig()
	badSeg.SlopeWindow = 0
	if _, _, err := Build(smallCohort(), badSeg); err == nil {
		t.Error("bad segmenter config accepted")
	}
}

// TestSegmentSession: a session is loaded as the segmenter cuts its
// samples.
func TestSegmentSession(t *testing.T) {
	gen, err := signal.NewRespiration(signal.DefaultRespiration(), 3)
	if err != nil {
		t.Fatal(err)
	}
	samples := gen.Generate(30)
	db, err := FromCohort([]signal.PatientData{{
		Profile:  signal.PatientProfile{ID: "P"},
		Sessions: []signal.SessionData{{SessionID: "S", Samples: samples}},
	}}, fsm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := fsm.SegmentAll(fsm.DefaultConfig(), samples)
	if err != nil {
		t.Fatal(err)
	}
	seq := db.Patient("P").StreamBySession("S").Seq()
	if !reflect.DeepEqual(seq, want) {
		t.Errorf("stored session differs from the segmenter's PLR:\n got %v\nwant %v", seq, want)
	}
	if seq.NumSegments() < 10 {
		t.Errorf("segments = %d", seq.NumSegments())
	}
}

func TestBuildDefaultSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("default cohort build is slow for -short")
	}
	db, _, err := Build(signal.DefaultCohort(), fsm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if db.NumVertices() == 0 {
		t.Error("empty default database")
	}
}
