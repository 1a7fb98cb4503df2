package main

import (
	"context"
	"errors"
	"strings"
	"testing"

	"normalize"
)

// addressFixture is the paper's running example set up like a
// workload: CSV in, IngestCSV, Normalize, DDL out.
func addressFixture(t *testing.T) *fixture {
	t.Helper()
	rel, err := normalize.NewRelation("address",
		[]string{"First", "Last", "Postcode", "City", "Mayor"},
		[][]string{
			{"Thomas", "Miller", "14482", "Potsdam", "Jakobs"},
			{"Sarah", "Miller", "14482", "Potsdam", "Jakobs"},
			{"Peter", "Smith", "60329", "Frankfurt", "Feldmann"},
			{"Jasmine", "Cone", "01069", "Dresden", "Orosz"},
			{"Mike", "Cone", "14482", "Potsdam", "Jakobs"},
			{"Thomas", "Moore", "60329", "Frankfurt", "Feldmann"},
		})
	if err != nil {
		t.Fatal(err)
	}
	fx, err := ingestFixture(rel, normalize.Options{MaxLhs: maxLhs}, normalize.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fx.wantDDL, err = reference(rel); err != nil {
		t.Fatal(err)
	}
	return fx
}

func TestFailedFracCountsEveryKindOfFailure(t *testing.T) {
	fx := addressFixture(t)
	ctx := context.Background()
	good, err := fx.job(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := fx.check(good, nil, nil); err != nil {
		t.Fatalf("the correct job failed its check: %v", err)
	}
	if err := checkStructure(fx.root, good.res, maxLhs); err != nil {
		t.Fatalf("the correct job failed the structure check: %v", err)
	}

	// A schema that differs in one byte must count as a failure.
	corrupted := good
	b := []byte(good.ddl)
	i := strings.Index(good.ddl, "Postcode")
	b[i] = 'p'
	corrupted.ddl = string(b)

	degraded := good
	res := *good.res
	res.Degradations = []normalize.Degradation{{Action: "sampled rows"}}
	degraded.res = &res

	var tl tally
	tl.record(fx.check(good, nil, nil))
	tl.record(fx.check(corrupted, nil, nil))
	tl.record(fx.check(good, errors.New("boom"), nil))
	tl.record(fx.check(degraded, nil, nil))
	tl.record(fx.check(good, nil, nil))
	if tl.attempted != 5 || tl.failed != 3 {
		t.Fatalf("tally = %d failed of %d attempted, want 3 of 5", tl.failed, tl.attempted)
	}
	if got := tl.failedFrac(); got != 0.6 {
		t.Errorf("failedFrac = %v, want 0.6", got)
	}
	if !strings.Contains(tl.reasons[0], "DDL differs") {
		t.Errorf("first reason = %q, want the DDL mismatch", tl.reasons[0])
	}
}

func TestFailedFracZeroWithoutJobs(t *testing.T) {
	var tl tally
	if tl.failedFrac() != 0 {
		t.Error("failedFrac without jobs is not 0")
	}
}

func TestPremiseMissCountsAsFailure(t *testing.T) {
	fx := addressFixture(t)
	fx.premise = func(jobOutput, map[string]int64) error { return errors.New("premise missed") }
	out, err := fx.job(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := fx.check(out, nil, nil); err == nil {
		t.Error("a missed premise passed the check")
	}
}

func TestStructureCheckRejectsLossyTables(t *testing.T) {
	fx := addressFixture(t)
	out, err := fx.job(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Drop one row of the referencing table: its DDL is unchanged, but
	// the join no longer reproduces the input.
	tables := append([]*normalize.Table(nil), out.res.Tables...)
	for i, tbl := range tables {
		if len(tbl.ForeignKeys) == 0 {
			continue
		}
		rows := tbl.Data.Rows()
		data, err := normalize.NewRelation(tbl.Data.Name, tbl.Data.Attrs, rows[1:])
		if err != nil {
			t.Fatal(err)
		}
		cp := *tbl
		cp.Data = data
		tables[i] = &cp
	}
	if err := checkLossless(fx.root, tables); err == nil {
		t.Error("a table missing a row passed the lossless-join check")
	}
}
