package trading_test

import (
	"context"
	"fmt"

	"autoadapt/internal/trading"
	"autoadapt/internal/wire"
)

// ExampleTrader_Query demonstrates the §V selection: export two offers and
// query with the paper's constraint and preference.
func ExampleTrader_Query() {
	tr := trading.NewTrader(nil) // static properties only: no resolver needed
	tr.AddType(trading.ServiceType{Name: "LoadShared"})

	_, _ = tr.Export("LoadShared",
		wire.ObjRef{Endpoint: "tcp|hostA:9000", Key: "service"},
		map[string]trading.PropValue{
			"LoadAvg":           {Static: wire.Number(12)},
			"LoadAvgIncreasing": {Static: wire.String("no")},
		})
	_, _ = tr.Export("LoadShared",
		wire.ObjRef{Endpoint: "tcp|hostB:9000", Key: "service"},
		map[string]trading.PropValue{
			"LoadAvg":           {Static: wire.Number(72)},
			"LoadAvgIncreasing": {Static: wire.String("yes")},
		})

	results, err := tr.Query(context.Background(), "LoadShared",
		"LoadAvg < 50 and LoadAvgIncreasing == no", "min LoadAvg", 0)
	if err != nil {
		fmt.Println("query:", err)
		return
	}
	for _, r := range results {
		fmt.Printf("%s LoadAvg=%v\n", r.Offer.Ref, r.Snapshot["LoadAvg"])
	}
	// Output:
	// tcp|hostA:9000/service LoadAvg=12
}

// ExampleParseConstraint shows the constraint language's syntax check: a
// query's constraint compiles once, and a malformed one is rejected before
// any offer is looked at.
func ExampleParseConstraint() {
	_, err := trading.ParseConstraint("LoadAvg < 50 and exist Host")
	fmt.Println(err)
	_, err = trading.ParseConstraint("LoadAvg < 50 and")
	fmt.Println(err)
	// Output:
	// <nil>
	// trading: constraint "LoadAvg < 50 and" at 16: unexpected end of constraint
}
