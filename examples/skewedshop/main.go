// Skewedshop reproduces the paper's §1 motivating example on a hand-built
// database: lineitem ⋈ orders ⋈ customer where expensive orders have many
// line items (Zipfian skew) and most customers share a nation.
//
// It walks through the paper's Figure 1/Figure 2 story:
//
//  1. the classic independence estimate underestimates badly;
//  2. either single SIT — SIT(price | L⋈O) or SIT(nation | O⋈C) — helps,
//     but view matching can apply only one of them at a time (their
//     expressions overlap on orders without nesting);
//  3. the conditional-selectivity framework combines both SITs in one
//     decomposition and gets close to the truth.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	condsel "condsel"
)

func main() {
	db := buildShop(1, 2000, 15000)

	q, err := db.Query().
		Join("lineitem.oid", "orders.id").
		Join("orders.cid", "customer.id").
		FilterAtLeast("orders.price", 900). // expensive orders…
		FilterEq("customer.nation", 1).     // …of domestic customers
		Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("query:", q)
	truth := db.ExactCardinality(q)
	fmt.Printf("\n%-34s %10.0f\n", "true cardinality", truth)

	// Base histograms only: the optimizer's classic estimate.
	base := db.NewPool(nil)
	for _, attr := range []string{"lineitem.oid", "orders.id", "orders.cid",
		"orders.price", "customer.id", "customer.nation"} {
		if err := base.AddBaseHistogram(attr); err != nil {
			log.Fatal(err)
		}
	}
	report(db, base, q, "independence (no SITs)")

	// One SIT at a time — what view matching achieves (Figure 1 b/c).
	lo := [2]string{"lineitem.oid", "orders.id"}
	oc := [2]string{"orders.cid", "customer.id"}

	priceOnly := db.NewPool(nil)
	copyBase(base, priceOnly)
	must(priceOnly.AddSIT("orders.price", lo))
	report(db, priceOnly, q, "SIT(price | L⋈O) alone")

	nationOnly := db.NewPool(nil)
	copyBase(base, nationOnly)
	must(nationOnly.AddSIT("customer.nation", oc))
	report(db, nationOnly, q, "SIT(nation | O⋈C) alone")

	// Both SITs available. GVM must still pick one (the expressions
	// conflict); getSelectivity combines them (Figure 2).
	both := db.NewPool(nil)
	copyBase(base, both)
	must(both.AddSIT("orders.price", lo))
	must(both.AddSIT("customer.nation", oc))

	gvmEst := db.NewGVMEstimator(both).Cardinality(q)
	fmt.Printf("%-34s %10.0f   (view matching: one SIT only)\n", "GVM with both SITs", gvmEst)
	report(db, both, q, "getSelectivity with both SITs")

	fmt.Println("\ndecomposition chosen by getSelectivity:")
	fmt.Print(db.NewEstimator(both, condsel.Diff).Explain(q))
}

func report(db *condsel.DB, pool *condsel.Pool, q *condsel.Query, label string) {
	est := db.NewEstimator(pool, condsel.Diff).Estimate(context.Background(), q).Cardinality
	fmt.Printf("%-34s %10.0f\n", label, est)
}

func copyBase(from, to *condsel.Pool) {
	for _, attr := range []string{"lineitem.oid", "orders.id", "orders.cid",
		"orders.price", "customer.id", "customer.nation"} {
		must(to.AddBaseHistogram(attr))
	}
	_ = from
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// buildShop creates the three-table shop with two independent skews, one
// per SIT: (i) expensive orders (price ≥ 900) have twenty line items
// instead of one, so price correlates with the L⋈O fan-out; (ii) orders are
// placed Zipf-style by "popular" low-id customers, who are mostly domestic
// (nation 1), so nation correlates with the O⋈C fan-out. Only a third of
// all customers are domestic, but they place most of the orders.
func buildShop(seed int64, nCustomers, nOrders int) *condsel.DB {
	rng := rand.New(rand.NewSource(seed))
	db := condsel.NewDB()

	cid := make([]int64, nCustomers)
	nation := make([]int64, nCustomers)
	for i := range cid {
		cid[i] = int64(i)
		if i < nCustomers/3 { // the popular (frequently ordering) customers
			nation[i] = 1
		} else {
			nation[i] = int64(2 + rng.Intn(30))
		}
	}
	must(db.AddTable("customer",
		condsel.Column{Name: "id", Values: cid},
		condsel.Column{Name: "nation", Values: nation}))

	zipf := rand.NewZipf(rng, 1.3, 1, uint64(nCustomers-1))
	oid := make([]int64, nOrders)
	ocid := make([]int64, nOrders)
	price := make([]int64, nOrders)
	var liOID, liQty []int64
	for i := range oid {
		oid[i] = int64(i)
		ocid[i] = int64(zipf.Uint64())
		price[i] = int64(rng.Intn(1000))
		items := 1
		if price[i] >= 900 {
			items = 20
		}
		for k := 0; k < items; k++ {
			liOID = append(liOID, oid[i])
			liQty = append(liQty, int64(1+rng.Intn(50)))
		}
	}
	must(db.AddTable("orders",
		condsel.Column{Name: "id", Values: oid},
		condsel.Column{Name: "cid", Values: ocid},
		condsel.Column{Name: "price", Values: price}))
	must(db.AddTable("lineitem",
		condsel.Column{Name: "oid", Values: liOID},
		condsel.Column{Name: "qty", Values: liQty}))
	return db
}
