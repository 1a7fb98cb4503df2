package main

import (
	"errors"
	"fmt"
	"os"
	"strings"

	"normalize"
	"normalize/internal/core"
)

// maxReasons caps the failure messages a run keeps.
const maxReasons = 5

// tally counts jobs attempted and failed. A job fails when it errors,
// degrades, misses its workload's premise, or produces a DDL that
// differs from the reference.
type tally struct {
	attempted, failed int
	reasons           []string
}

func (t *tally) record(err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.reasons) < maxReasons {
		t.reasons = append(t.reasons, err.Error())
	}
}

func (t *tally) failedFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// check is the output check applied to every job before its time
// counts.
func (fx *fixture) check(out jobOutput, jobErr error, counters map[string]int64) error {
	if jobErr != nil {
		return jobErr
	}
	if len(out.res.Degradations) > 0 {
		return fmt.Errorf("job degraded: %s", strings.TrimSpace(normalize.FormatDegradations(out.res.Degradations)))
	}
	if out.ddl != fx.wantDDL {
		return fmt.Errorf("DDL differs from the serial reference at byte %d", firstDiff(out.ddl, fx.wantDDL))
	}
	if fx.premise != nil {
		return fx.premise(out, counters)
	}
	return nil
}

func firstDiff(a, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// checkStructure verifies a job's tables beyond their DDL: each is in
// BCNF with respect to the FDs discovery can see under the job's LHS
// bound, the natural join of all tables reproduces the root relation's
// rows, and every foreign key holds.
func checkStructure(root *normalize.Relation, res *normalize.Result, maxLhs int) error {
	for _, t := range res.Tables {
		if err := core.VerifyNormalFormMax(t, maxLhs); err != nil {
			return fmt.Errorf("normal form: %w", err)
		}
	}
	if err := checkLossless(root, res.Tables); err != nil {
		return err
	}
	if err := normalize.CheckReferentialIntegrity(res.Tables); err != nil {
		return fmt.Errorf("referential integrity: %w", err)
	}
	return nil
}

// checkLossless joins the tables along their foreign keys, starting
// from the table no foreign key references, and compares the join's
// projection on the root's attributes with the root's distinct rows.
// Each step joins a referenced table on attributes that include its
// key, after checking that they are unique in it, so the join never
// grows beyond the referencing rows.
func checkLossless(root *normalize.Relation, tables []*normalize.Table) error {
	byName := make(map[string]*normalize.Table, len(tables))
	referenced := map[string]bool{}
	for _, t := range tables {
		byName[t.Name] = t
		for _, fk := range t.ForeignKeys {
			referenced[fk.RefTable] = true
		}
	}
	var start *normalize.Table
	for _, t := range tables {
		if !referenced[t.Name] {
			if start != nil {
				return fmt.Errorf("lossless join: tables %s and %s are both unreferenced", start.Name, t.Name)
			}
			start = t
		}
	}
	if start == nil {
		return errors.New("lossless join: every table is referenced")
	}
	joined := start.Data
	done := map[string]bool{start.Name: true}
	queue := []*normalize.Table{start}
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		for _, fk := range t.ForeignKeys {
			ref := byName[fk.RefTable]
			if ref == nil {
				return fmt.Errorf("lossless join: %s references unknown table %s", t.Name, fk.RefTable)
			}
			if done[ref.Name] {
				continue
			}
			if err := uniqueOn(ref.Data, joined.Attrs); err != nil {
				return fmt.Errorf("lossless join: %w", err)
			}
			var err error
			if joined, err = joined.NaturalJoin("joined", ref.Data); err != nil {
				return fmt.Errorf("lossless join: %w", err)
			}
			done[ref.Name] = true
			queue = append(queue, ref)
		}
	}
	if len(done) != len(tables) {
		return fmt.Errorf("lossless join: %d of %d tables are not reachable by foreign keys", len(tables)-len(done), len(tables))
	}
	cols := make([]int, root.NumAttrs())
	for i, a := range root.Attrs {
		if cols[i] = joined.AttrIndex(a); cols[i] < 0 {
			return fmt.Errorf("lossless join: attribute %s is lost", a)
		}
	}
	want, err := normalize.NewRelation(root.Name, root.Attrs, root.Rows())
	if err != nil {
		return fmt.Errorf("lossless join: %w", err)
	}
	if !joined.Project("joined", cols).SameRowSet(want.Dedup()) {
		return errors.New("lossless join: the natural join of the tables differs from the input rows")
	}
	return nil
}

// uniqueOn checks that rel's rows are unique on its attributes that
// also occur in attrs, the attributes a natural join would match on.
func uniqueOn(rel *normalize.Relation, attrs []string) error {
	var cols []int
	for _, a := range attrs {
		if c := rel.AttrIndex(a); c >= 0 {
			cols = append(cols, c)
		}
	}
	seen := make(map[string]bool, rel.NumRows())
	var b strings.Builder
	for r := 0; r < rel.NumRows(); r++ {
		b.Reset()
		for _, c := range cols {
			b.WriteString(rel.Value(r, c))
			b.WriteByte(0)
		}
		if seen[b.String()] {
			return fmt.Errorf("table %s is not unique on the join attributes", rel.Name)
		}
		seen[b.String()] = true
	}
	return nil
}

// checkSpillDirEmpty fails when the library left spill files behind.
func checkSpillDirEmpty(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("read spill directory: %w", err)
	}
	if len(ents) > 0 {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		return fmt.Errorf("spill files left behind: %s", strings.Join(names, ", "))
	}
	return nil
}
