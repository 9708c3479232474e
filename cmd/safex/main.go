// Command safex schedules a single exchange from a JSON description and
// explains the result step by step: the payment band at every state and the
// exposure each party carries. It is the interactive face of
// internal/exchange.
//
// Usage:
//
//	safex -mode safe -stake-supplier 4 < exchange.json
//	safex -mode trust-aware -cap-supplier 5 -cap-consumer 5 < exchange.json
//
// Input format (amounts in currency units):
//
//	{"price": 15, "items": [
//	  {"id": "a", "cost": 4, "worth": 10},
//	  {"id": "b", "cost": 6, "worth": 12}
//	]}
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"trustcoop/internal/cli"
	"trustcoop/internal/exchange"
	"trustcoop/internal/goods"
)

type inputItem struct {
	ID    string  `json:"id"`
	Cost  float64 `json:"cost"`
	Worth float64 `json:"worth"`
}

type input struct {
	Price float64     `json:"price"`
	Items []inputItem `json:"items"`
}

func main() {
	cli.Exit("safex", run(os.Args[1:], os.Stdin, os.Stdout))
}

func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("safex", flag.ContinueOnError)
	mode := fs.String("mode", "safe", "safe | trust-aware | combined")
	stakeSup := fs.Float64("stake-supplier", 0, "supplier reputation stake δs (units)")
	stakeCon := fs.Float64("stake-consumer", 0, "consumer reputation stake δc (units)")
	capSup := fs.Float64("cap-supplier", 0, "supplier exposure cap Ls (units)")
	capCon := fs.Float64("cap-consumer", 0, "consumer exposure cap Lc (units)")
	eager := fs.Bool("eager", false, "pay eagerly instead of lazily")
	analyze := fs.Bool("analyze", false, "print minimal stake/exposure for the terms and exit")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	// Every amount from outside goes through goods.FromFloat; the first one
	// out of range is reported by its flag or field name.
	var amountErr error
	amount := func(name string, units float64) goods.Money {
		m, err := goods.FromFloat(name, units)
		if amountErr == nil {
			amountErr = err
		}
		return m
	}
	// Stakes and caps are slacks on the bands: a negative one is refused
	// here, by its flag, not by the scheduler.
	slack := func(name string, units float64) goods.Money {
		m := amount(name, units)
		if m < 0 && amountErr == nil {
			amountErr = fmt.Errorf("%s: negative amount %v (want ≥ 0)", name, units)
		}
		return m
	}
	stakes := exchange.Stakes{Supplier: slack("-stake-supplier", *stakeSup), Consumer: slack("-stake-consumer", *stakeCon)}
	caps := exchange.ExposureCaps{Supplier: slack("-cap-supplier", *capSup), Consumer: slack("-cap-consumer", *capCon)}
	if amountErr != nil {
		return amountErr
	}

	var spec input
	dec := json.NewDecoder(in)
	if err := dec.Decode(&spec); err != nil {
		return fmt.Errorf("parse input: %w", err)
	}
	items := make([]goods.Item, len(spec.Items))
	for i, it := range spec.Items {
		items[i] = goods.Item{
			ID:    it.ID,
			Cost:  amount(fmt.Sprintf("items[%d].cost", i), it.Cost),
			Worth: amount(fmt.Sprintf("items[%d].worth", i), it.Worth),
		}
	}
	price := amount("price", spec.Price)
	if amountErr != nil {
		return amountErr
	}
	bundle, err := goods.NewBundle(items...)
	if err != nil {
		return err
	}
	terms := exchange.Terms{Bundle: bundle, Price: price}

	if *analyze {
		if err := terms.Validate(); err != nil {
			return err
		}
		fmt.Fprintf(out, "supplier gain   %v\nconsumer gain   %v\n", terms.SupplierGain(), terms.ConsumerGain())
		fmt.Fprintf(out, "minimal stake Δ* (fully safe)      %v\n", exchange.MinimalStake(terms))
		fmt.Fprintf(out, "minimal symmetric exposure L*      %v\n", exchange.MinimalExposure(terms))
		return nil
	}

	var bands exchange.Bands
	switch *mode {
	case "safe":
		bands = exchange.SafeBands(stakes)
	case "trust-aware":
		bands = exchange.TrustAwareBands(caps)
	case "combined":
		bands = exchange.CombinedBands(stakes, caps)
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	opt := exchange.Options{}
	if *eager {
		opt.Policy = exchange.PayEager
	}

	plan, err := exchange.Schedule(terms, bands, opt)
	if err != nil {
		if errors.Is(err, exchange.ErrNoFeasibleSequence) || errors.Is(err, exchange.ErrNoSafeSequence) {
			fmt.Fprintf(out, "no %s sequence exists: %v\n", bands, err)
			fmt.Fprintf(out, "hint: minimal stake Δ* = %v, minimal symmetric exposure L* = %v\n",
				exchange.MinimalStake(terms), exchange.MinimalExposure(terms))
			return nil
		}
		return err
	}

	fmt.Fprintf(out, "%s schedule for price %v (supplier gain %v, consumer gain %v)\n\n",
		bands, terms.Price, terms.SupplierGain(), terms.ConsumerGain())
	var m goods.Money
	var delivered []goods.Item
	printState := func() {
		lo, hi := exchange.RangeAt(terms, bands, delivered)
		var wd, cd goods.Money
		for _, it := range delivered {
			wd += it.Worth
			cd += it.Cost
		}
		fmt.Fprintf(out, "    paid %v  band [%v, %v]  consumer exposure %v  supplier exposure %v\n",
			m, lo, hi, (m - wd).ClampNonNeg(), (cd - m).ClampNonNeg())
	}
	printState()
	for i, step := range plan.Steps {
		fmt.Fprintf(out, "%2d. %s\n", i+1, step)
		if step.Kind == exchange.StepPay {
			m += step.Amount
		} else {
			delivered = append(delivered, step.Item)
		}
		printState()
	}
	fmt.Fprintf(out, "\nworst-case exposure: consumer %v, supplier %v; tightest band margin %v\n",
		plan.Report.MaxConsumerExposure, plan.Report.MaxSupplierExposure, plan.Report.MinSlack)
	return nil
}
