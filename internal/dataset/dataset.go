// Package dataset assembles experiment-ready stream databases: it runs
// synthetic cohorts from internal/signal through the online segmenter
// in internal/fsm and loads the resulting PLR streams into an
// internal/store database. Command-line tools, examples and the
// experiment harness all build their inputs here.
package dataset

import (
	"fmt"

	"stsmatch/internal/fsm"
	"stsmatch/internal/signal"
	"stsmatch/internal/store"
)

// Build generates the cohort, segments every session and returns the
// populated database together with the raw cohort data (tests and
// experiments need the raw samples as ground truth).
func Build(cfg signal.CohortConfig, segCfg fsm.Config) (*store.DB, []signal.PatientData, error) {
	cohort, err := signal.GenerateCohort(cfg)
	if err != nil {
		return nil, nil, err
	}
	db, err := FromCohort(cohort, segCfg)
	if err != nil {
		return nil, nil, err
	}
	return db, cohort, nil
}

// FromCohort loads an already-generated cohort into a database.
func FromCohort(cohort []signal.PatientData, segCfg fsm.Config) (*store.DB, error) {
	db := store.NewDB()
	for _, pd := range cohort {
		p, err := db.AddPatient(store.PatientInfo{
			ID:        pd.Profile.ID,
			Class:     pd.Profile.Class.String(),
			Age:       pd.Profile.Age,
			TumorSite: pd.Profile.TumorSite,
		})
		if err != nil {
			return nil, err
		}
		for _, sess := range pd.Sessions {
			seq, err := fsm.SegmentAll(segCfg, sess.Samples)
			if err != nil {
				return nil, fmt.Errorf("dataset: segmenting %s: %w", sess.SessionID, err)
			}
			st := p.AddStream(sess.SessionID)
			if err := st.Append(seq...); err != nil {
				return nil, fmt.Errorf("dataset: loading %s: %w", sess.SessionID, err)
			}
		}
	}
	return db, nil
}
