package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// replayFile is the on-disk format: the campaign configuration plus the
// exact schedule that produced a verdict.
type replayFile struct {
	Campaign Campaign `json:"campaign"`
	Actions  []Action `json:"actions"`
	// Violations are included for the reader's benefit; Replay ignores
	// them and re-derives the verdict.
	Violations []Violation `json:"violations,omitempty"`
}

// WriteReplay dumps a report's campaign and schedule as JSON so the run
// can be reproduced later (or on another machine) with LoadReplay.
func WriteReplay(path string, rep *Report) error {
	b, err := json.MarshalIndent(replayFile{
		Campaign:   rep.Campaign,
		Actions:    rep.Actions,
		Violations: rep.Violations,
	}, "", "  ")
	if err != nil {
		return fmt.Errorf("chaos: encode replay: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// LoadReplay reads a replay file back. Execute the returned schedule
// under the returned campaign to reproduce the original run exactly.
// Decoding is strict: a key this build does not know (a field renamed
// since the file was written, a typo in a hand edit) is an error, never
// a silently different campaign reported as a faithful replay.
func LoadReplay(path string) (Campaign, []Action, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Campaign{}, nil, fmt.Errorf("chaos: read replay: %w", err)
	}
	var rf replayFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rf); err != nil {
		return Campaign{}, nil, fmt.Errorf("chaos: decode replay %s: %w", path, err)
	}
	return rf.Campaign, rf.Actions, nil
}
