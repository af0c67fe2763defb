package main

import (
	"fmt"
	"math/rand"
	"time"

	swole "github.com/reprolab/swole"
	"github.com/reprolab/swole/internal/tpch"
)

// tpch_sql: TPC-H statements written as SQL, with substitution parameters
// drawn from the seed within the ranges the TPC-H specification gives.

// tpchDraws is how many parameter draws a run replays, each query at each
// draw a plan-cached statement of its own. A query's cost depends on its
// parameters; several draws per run keep one unlucky draw from moving a
// whole run.
const tpchDraws = 3

var (
	tpchNames       = []string{"q1", "q3", "q12", "q14", "q19"}
	tpchKernelNames = []string{"q1", "q3", "q14", "q19"}
	tpchKernels     = map[string]tpch.Query{"q1": tpch.Q1, "q3": tpch.Q3, "q14": tpch.Q14, "q19": tpch.Q19}
)

// tpchParams are one draw of the substitution parameters.
type tpchParams struct {
	q1Date    string
	q3Segment string
	q3Date    string
	q12Modes  [2]string
	q12Year   int
	q14Date   time.Time
	q19Brand  [3]string
	q19Qty    [3]int
}

// validationParams are the specification's validation parameters, the
// ones the hand-coded kernels in internal/tpch hard-wire.
func validationParams() tpchParams {
	return tpchParams{
		q1Date:    "1998-09-02",
		q3Segment: "BUILDING",
		q3Date:    "1995-03-15",
		q12Modes:  [2]string{"MAIL", "SHIP"},
		q12Year:   1994,
		q14Date:   time.Date(1995, 9, 1, 0, 0, 0, 0, time.UTC),
		q19Brand:  [3]string{"Brand#12", "Brand#23", "Brand#34"},
		q19Qty:    [3]int{1, 10, 20},
	}
}

func randomParams(rng *rand.Rand) tpchParams {
	day := func(t time.Time) string { return t.Format("2006-01-02") }
	modes := []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	segments := []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	m := rng.Perm(len(modes))
	brand := func() string { return fmt.Sprintf("Brand#%d%d", 1+rng.Intn(5), 1+rng.Intn(5)) }
	return tpchParams{
		q1Date:    day(time.Date(1998, 12, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, -(60 + rng.Intn(61)))),
		q3Segment: segments[rng.Intn(len(segments))],
		q3Date:    day(time.Date(1995, 3, 1+rng.Intn(31), 0, 0, 0, 0, time.UTC)),
		q12Modes:  [2]string{modes[m[0]], modes[m[1]]},
		q12Year:   1993 + rng.Intn(5),
		q14Date:   time.Date(1993+rng.Intn(5), time.Month(1+rng.Intn(12)), 1, 0, 0, 0, 0, time.UTC),
		q19Brand:  [3]string{brand(), brand(), brand()},
		q19Qty:    [3]int{1 + rng.Intn(10), 10 + rng.Intn(11), 20 + rng.Intn(11)},
	}
}

// revenue is l_extendedprice * (1 - l_discount) in the store's
// fixed-point units, as the hand-coded kernels compute it.
const revenue = "l_extendedprice * (100 - l_discount)"

// tpchStatements renders Q1, Q3 (without ORDER BY and LIMIT), Q12, Q14
// (numerator and denominator as two aggregates) and Q19.
func tpchStatements(p tpchParams) []*stmt {
	q19 := ""
	sizes := [3]int{5, 10, 15}
	conts := [3]string{
		"'SM CASE', 'SM BOX', 'SM PACK', 'SM PKG'",
		"'MED BAG', 'MED BOX', 'MED PKG', 'MED PACK'",
		"'LG CASE', 'LG BOX', 'LG PACK', 'LG PKG'",
	}
	for i := range sizes {
		if i > 0 {
			q19 += " or "
		}
		q19 += fmt.Sprintf("(p_brand = '%s' and p_container in (%s) and l_quantity between %d and %d and p_size between 1 and %d)",
			p.q19Brand[i], conts[i], p.q19Qty[i], p.q19Qty[i]+10, sizes[i])
	}
	sql := []string{
		"select l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice), sum(" + revenue + "), " +
			"sum(" + revenue + " * (100 + l_tax)), avg(l_quantity), avg(l_extendedprice), avg(l_discount), count(*) " +
			"from lineitem where l_shipdate <= date '" + p.q1Date + "' group by l_returnflag, l_linestatus",
		"select l_orderkey, sum(" + revenue + "), o_orderdate, o_shippriority from lineitem, orders, customer " +
			"where l_orderkey = o_orderkey and o_custkey = c_custkey and c_mktsegment = '" + p.q3Segment + "' " +
			"and o_orderdate < date '" + p.q3Date + "' and l_shipdate > date '" + p.q3Date + "' " +
			"group by l_orderkey, o_orderdate, o_shippriority",
		fmt.Sprintf("select l_shipmode, sum(case when o_orderpriority = '1-URGENT' or o_orderpriority = '2-HIGH' then 1 else 0 end), "+
			"sum(case when o_orderpriority <> '1-URGENT' and o_orderpriority <> '2-HIGH' then 1 else 0 end) "+
			"from lineitem, orders where l_orderkey = o_orderkey and l_shipmode in ('%s', '%s') "+
			"and l_commitdate < l_receiptdate and l_shipdate < l_commitdate "+
			"and l_receiptdate >= date '%d-01-01' and l_receiptdate < date '%d-01-01' group by l_shipmode",
			p.q12Modes[0], p.q12Modes[1], p.q12Year, p.q12Year+1),
		"select sum(case when p_type like 'PROMO%' then " + revenue + " else 0 end), sum(" + revenue + ") " +
			"from lineitem, part where l_partkey = p_partkey and l_shipdate >= date '" + p.q14Date.Format("2006-01-02") + "' " +
			"and l_shipdate < date '" + p.q14Date.AddDate(0, 1, 0).Format("2006-01-02") + "'",
		"select sum(" + revenue + ") from lineitem, part where l_partkey = p_partkey " +
			"and l_shipmode in ('AIR', 'REG AIR') and l_shipinstruct = 'DELIVER IN PERSON' and (" + q19 + ")",
	}
	out := make([]*stmt, len(sql))
	for i, q := range sql {
		out[i] = &stmt{name: tpchNames[i], sql: q}
	}
	return out
}

func runTPCHSQL(e *env) (*outcome, error) {
	o := newOutcome()
	db, setupS, err := setupRepeated(e, "tpch_sql", func(parent, req int64) (*swole.DB, error) {
		var db *swole.DB
		e.tr.timed("swole.LoadTPCH", parent, req, func() { db = swole.LoadTPCH(e.sz.tpchSF) })
		db.SetWorkers(e.workers)
		return db, nil
	}, (*swole.DB).Close)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	var stmts []*stmt
	for i := 0; i < tpchDraws; i++ {
		stmts = append(stmts, tpchStatements(randomParams(e.rng))...)
	}
	if err := e.prepare(db, stmts, o); err != nil {
		return nil, err
	}
	w := e.closedLoop(db, e.cycle(stmts), o)
	e.verifyLast(stmts, o)
	e.fill(w, o, setupS, latencies(stmts))
	byQuery := map[string][]time.Duration{}
	seen := map[string]bool{}
	for _, s := range stmts {
		byQuery[s.name] = append(byQuery[s.name], s.lat...)
		note := fmt.Sprintf("core.shape.%s = %s (%s)", s.name, s.last.Shape, s.last.Technique)
		if !seen[note] {
			seen[note] = true
			o.notes = append(o.notes, note)
		}
	}
	for _, q := range tpchNames {
		o.layers["core.tpch."+q+"_ms"] = ms(median(byQuery[q]))
	}
	e.fixedLayers(db, stmts, o)
	firstRunOverhead(stmts, o)
	if e.tr != nil {
		if err := e.kernelRatios(db, o); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// kernelRatios times the SQL statements at the validation parameters
// against the hand-coded SWOLE kernels of internal/tpch, which hard-wire
// those parameters. The kernel of Q3 also sorts its top ten rows.
func (e *env) kernelRatios(db *swole.DB, o *outcome) error {
	const reps = 5
	var data *tpch.Data
	e.tr.timed("tpch.Generate", 0, e.tr.request(), func() { data = tpch.Generate(e.sz.tpchSF) })
	for _, s := range tpchStatements(validationParams()) {
		q, ok := tpchKernels[s.name]
		if !ok {
			continue
		}
		var sqlT, kernT []time.Duration
		for i := 0; i < reps+1; i++ {
			req := e.tr.request()
			var err error
			d := e.tr.timed("DB.QueryContext", 0, req, func() { _, _, err = db.QueryContext(bg, s.sql) })
			if err != nil {
				return fmt.Errorf("%s at validation parameters: %w", s.name, err)
			}
			k := e.tr.timed("tpch.Data.Run", 0, req, func() { _, err = data.Run(q, tpch.Swole) })
			if err != nil {
				return fmt.Errorf("%s kernel: %w", s.name, err)
			}
			if i > 0 { // the first round is the cold run
				sqlT, kernT = append(sqlT, d), append(kernT, k)
			}
		}
		o.layers["core.tpch."+s.name+"_over_kernel"] = float64(median(sqlT)) / float64(median(kernT))
	}
	return nil
}
