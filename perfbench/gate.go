package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"repro/internal/explore"
)

// expectedJSON holds every unit's deterministic output, recorded with
// -record when the benchmark was defined: workload -> "target/seed" ->
// output. Both the default and the held-out seed sets are recorded.
//
//go:embed expected.json
var expectedJSON []byte

type expectedOutputs map[string]map[string]output

func loadExpected() (expectedOutputs, error) {
	var e expectedOutputs
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("parse expected.json: %w", err)
	}
	return e, nil
}

// compareOutput lists every way got departs from want for one unit; nil
// means the unit's behaviour is unchanged.
func compareOutput(key string, want, got output) []string {
	var diffs []string
	if got.Detected != want.Detected {
		diffs = append(diffs, fmt.Sprintf("%s: detected %v, recorded %v", key, got.Detected, want.Detected))
	}
	if got.Executions != want.Executions {
		diffs = append(diffs, fmt.Sprintf("%s: detect_execs drift: %d executions, recorded %d", key, got.Executions, want.Executions))
	}
	have := map[string]bool{}
	for _, s := range got.Buckets {
		have[s] = true
	}
	recorded := map[string]bool{}
	for _, s := range want.Buckets {
		recorded[s] = true
		if !have[s] {
			diffs = append(diffs, fmt.Sprintf("%s: recorded detected bucket %s missing", key, s))
		}
	}
	for _, s := range got.Buckets {
		if !recorded[s] {
			diffs = append(diffs, fmt.Sprintf("%s: unrecorded detected bucket %s", key, s))
		}
	}
	if got.Outcome != want.Outcome {
		diffs = append(diffs, fmt.Sprintf("%s: outcome %q, recorded %q", key, got.Outcome, want.Outcome))
	}
	if got.MinimalID != want.MinimalID {
		diffs = append(diffs, fmt.Sprintf("%s: witness minimal_id %q, recorded %q", key, got.MinimalID, want.MinimalID))
	}
	switch {
	case (got.Stats == nil) != (want.Stats == nil):
		diffs = append(diffs, fmt.Sprintf("%s: explore stats present=%v, recorded present=%v", key, got.Stats != nil, want.Stats != nil))
	case got.Stats != nil && *got.Stats != *want.Stats:
		diffs = append(diffs, fmt.Sprintf("%s: explore stats %+v, recorded %+v", key, *got.Stats, *want.Stats))
	}
	return diffs
}

// checkUnit gates one unit: the recorded output must exist and match, and
// a certificate must account for its whole space
// (executed + collapsed == space; a witness stops the search early, so
// the identity holds for certificates only).
func checkUnit(exp expectedOutputs, workload string, key string, got output) []string {
	want, ok := exp[workload][key]
	if !ok {
		return []string{fmt.Sprintf("%s: no recorded output for this workload and world seed (record it with -record)", key)}
	}
	diffs := compareOutput(key, want, got)
	if st := got.Stats; st != nil && got.Outcome == explore.OutcomeCertificate && st.SchedulesExecuted+st.SchedulesCollapsed != st.ScheduleSpace {
		diffs = append(diffs, fmt.Sprintf("%s: certificate accounting broken: executed %d + collapsed %d != space %d",
			key, st.SchedulesExecuted, st.SchedulesCollapsed, st.ScheduleSpace))
	}
	return diffs
}
