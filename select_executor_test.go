package swole

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/reprolab/swole/internal/core"
	"github.com/reprolab/swole/internal/exec"
)

// tpchRevenue is l_extendedprice * (1 - l_discount) in the store's
// fixed-point units.
const tpchRevenue = "l_extendedprice * (100 - l_discount)"

// tpchSelectStatements are TPC-H Q1, Q3 (without ORDER BY and LIMIT),
// Q12, Q14 (numerator and denominator as two aggregates) and Q19 at the
// specification's validation parameters: statements the generic Select
// executor runs, not the classic-shape kernels.
var tpchSelectStatements = map[string]string{
	"q1": "select l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice), sum(" + tpchRevenue + "), " +
		"sum(" + tpchRevenue + " * (100 + l_tax)), avg(l_quantity), avg(l_extendedprice), avg(l_discount), count(*) " +
		"from lineitem where l_shipdate <= date '1998-09-02' group by l_returnflag, l_linestatus",
	"q3": "select l_orderkey, sum(" + tpchRevenue + "), o_orderdate, o_shippriority from lineitem, orders, customer " +
		"where l_orderkey = o_orderkey and o_custkey = c_custkey and c_mktsegment = 'BUILDING' " +
		"and o_orderdate < date '1995-03-15' and l_shipdate > date '1995-03-15' " +
		"group by l_orderkey, o_orderdate, o_shippriority",
	"q12": "select l_shipmode, sum(case when o_orderpriority = '1-URGENT' or o_orderpriority = '2-HIGH' then 1 else 0 end), " +
		"sum(case when o_orderpriority <> '1-URGENT' and o_orderpriority <> '2-HIGH' then 1 else 0 end) " +
		"from lineitem, orders where l_orderkey = o_orderkey and l_shipmode in ('MAIL', 'SHIP') " +
		"and l_commitdate < l_receiptdate and l_shipdate < l_commitdate " +
		"and l_receiptdate >= date '1994-01-01' and l_receiptdate < date '1995-01-01' group by l_shipmode",
	"q14": "select sum(case when p_type like 'PROMO%' then " + tpchRevenue + " else 0 end), sum(" + tpchRevenue + ") " +
		"from lineitem, part where l_partkey = p_partkey and l_shipdate >= date '1995-09-01' " +
		"and l_shipdate < date '1995-10-01'",
	"q19": "select sum(" + tpchRevenue + ") from lineitem, part where l_partkey = p_partkey " +
		"and l_shipmode in ('AIR', 'REG AIR') and l_shipinstruct = 'DELIVER IN PERSON' and (" +
		"(p_brand = 'Brand#12' and p_container in ('SM CASE', 'SM BOX', 'SM PACK', 'SM PKG') and l_quantity between 1 and 11 and p_size between 1 and 5) or " +
		"(p_brand = 'Brand#23' and p_container in ('MED BAG', 'MED BOX', 'MED PKG', 'MED PACK') and l_quantity between 10 and 20 and p_size between 1 and 10) or " +
		"(p_brand = 'Brand#34' and p_container in ('LG CASE', 'LG BOX', 'LG PACK', 'LG PKG') and l_quantity between 20 and 30 and p_size between 1 and 15))",
}

// TestTPCHSelectParity runs the TPC-H statements through the plan cache,
// cold and warm, at 1, 2 and 4 workers, against the interpreter.
func TestTPCHSelectParity(t *testing.T) {
	d := LoadTPCH(0.01)
	defer d.Close()
	ctx := context.Background()
	for name, q := range tpchSelectStatements {
		want, err := d.Query(q)
		if err != nil {
			t.Fatalf("%s: interpreter: %v", name, err)
		}
		if want.NumRows() == 0 {
			t.Fatalf("%s: the interpreter answers no rows; the fixture checks nothing", name)
		}
		for _, workers := range []int{1, 2, 4} {
			d.SetWorkers(workers)
			for _, warm := range []bool{false, true} {
				res, ex, err := d.QueryContext(ctx, q)
				if err != nil {
					t.Fatalf("%s workers=%d: %v", name, workers, err)
				}
				if ex.PlanCached != warm || ex.Workers != workers || ex.Shape == "interpreter-fallback" {
					t.Errorf("%s workers=%d warm=%t: PlanCached=%t Workers=%d Shape=%s", name, workers, warm, ex.PlanCached, ex.Workers, ex.Shape)
				}
				if !rowsEqual(sortedRows(want.Rows()), sortedRows(res.Rows())) {
					t.Fatalf("%s workers=%d warm=%t:\ninterpreter: %v\nswole:       %v", name, workers, warm, want.Rows(), res.Rows())
				}
			}
		}
	}
}

// TestDivisionByZeroOnRejectedRows pins two statements that divide by a
// column which is zero only on rows the predicate rejects. Masked
// evaluation computes the quotient on every lane of a tile, so neither may
// trap; both must answer as the interpreter does.
func TestDivisionByZeroOnRejectedRows(t *testing.T) {
	d, err := LoadMicro(MicroConfig{Rows: 200_000, GroupKeys: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, q := range []string{
		"select count(*) from r where r_x <> 0 and r_a / r_x > 1",
		"select r_c, sum(r_a / r_x), count(*) from r where r_x <> 0 group by r_c",
	} {
		for _, workers := range []int{1, 4} {
			d.SetWorkers(workers)
			checkParity(t, d, q, false, "cold", func() (*Result, Explain, error) { return d.QueryContext(context.Background(), q) })
			checkParity(t, d, q, true, "warm", func() (*Result, Explain, error) { return d.QueryContext(context.Background(), q) })
		}
	}
}

// TestWorkerPanicBecomesError injects a panic into a morsel of a
// multi-worker scan. The statement must fail with an error that names it
// and carries the worker's panic, its cached plan must be evicted, and
// the same DB — worker gang included — must keep answering correctly.
func TestWorkerPanicBecomesError(t *testing.T) {
	d, err := LoadMicro(MicroConfig{Rows: 400_000, GroupKeys: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.SetWorkers(4)
	ctx := context.Background()
	q := "select r_c, sum(r_a), count(*) from r where r_x < 50 group by r_c"
	classic := "select sum(r_a) from r where r_x < 50"
	if _, _, err := d.QueryContext(ctx, q); err != nil {
		t.Fatal(err)
	}
	if d.PlanCacheLen() != 1 {
		t.Fatalf("plan cache holds %d entries, want 1", d.PlanCacheLen())
	}

	injected := errors.New("injected worker fault")
	core.SetSelectFaultHook(func() { panic(injected) })
	_, _, err = d.QueryContext(ctx, q)
	core.SetSelectFaultHook(nil)
	if err == nil {
		t.Fatal("a panicking morsel returned no error")
	}
	var wp *exec.WorkerPanic
	if !strings.Contains(err.Error(), q) || !errors.As(err, &wp) || !errors.Is(err, injected) {
		t.Fatalf("error %q does not name the statement and carry the worker panic", err)
	}
	if d.PlanCacheLen() != 0 {
		t.Errorf("plan cache holds %d entries after the failure, want the statement evicted", d.PlanCacheLen())
	}
	for _, s := range []string{q, classic} {
		checkParity(t, d, s, false, "after a worker panic", func() (*Result, Explain, error) { return d.QueryContext(ctx, s) })
	}
}
