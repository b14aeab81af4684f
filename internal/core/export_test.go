package core

import (
	"testing"
	"time"
)

// SetStageClock replaces the funnel's stage clock until t ends, for the
// external tests that count its reads through a served request.
func SetStageClock(t testing.TB, clock func() time.Time) {
	now = clock
	t.Cleanup(func() { now = time.Now })
}
