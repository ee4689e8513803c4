// costexplorer projects monthly costs for the video workload across
// request rates on both clouds, separating computation from stateful
// charges — the decision the paper's §V-C helps a tenant make.
//
//	go run ./examples/costexplorer
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"statebench/internal/core"
	"statebench/internal/obs"
	"statebench/internal/pricing"
	"statebench/internal/sim"
	"statebench/internal/workloads/videoproc"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "costexplorer:", err)
		os.Exit(1)
	}
}

// run projects both clouds' monthly bills across request rates and
// writes the comparison to w.
func run(w io.Writer) error {
	rates := []int{1, 4, 24} // runs per day
	tbl := obs.Table{Header: []string{"runs/day", "AWS-Step total", "AWS stateful", "Az-Dorch total", "Az stateful", "cheaper"}}
	for _, perDay := range rates {
		aws, err := project(core.AWSStep, perDay)
		if err != nil {
			return err
		}
		az, err := project(core.AzDorch, perDay)
		if err != nil {
			return err
		}
		cheaper := "AWS"
		if az.Total() < aws.Total() {
			cheaper = "Azure"
		}
		tbl.AddRow(fmt.Sprintf("%d", perDay),
			fmt.Sprintf("$%.4f", aws.Total()), fmt.Sprintf("%.1f%%", aws.StatefulShare()*100),
			fmt.Sprintf("$%.4f", az.Total()), fmt.Sprintf("%.1f%%", az.StatefulShare()*100),
			cheaper)
	}
	fmt.Fprintln(w, "projected monthly cost, video processing with 20 workers:")
	fmt.Fprintln(w, tbl.String())
	fmt.Fprintln(w, "Azure's stateful share grows as usage drops: the task hub")
	fmt.Fprintln(w, "polls its queues even when no workflow is running.")
	return nil
}

// project simulates a 12h window at the given rate and scales to 30 days.
func project(impl core.Impl, runsPerDay int) (pricing.Bill, error) {
	window := 12 * time.Hour
	interval := 24 * time.Hour / time.Duration(runsPerDay)
	runs := int(window / interval)
	if runs < 1 {
		runs = 1
	}
	env := core.NewEnv(11)
	dep, err := videoproc.New(20).Deploy(env, impl)
	if err != nil {
		return pricing.Bill{}, err
	}
	var runErr error
	env.K.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < runs; i++ {
			if _, err := dep.Runner.Invoke(p, nil); err != nil {
				runErr = err
				return
			}
			p.Sleep(interval)
		}
	})
	env.K.RunUntil(window)
	env.Stop()
	env.K.Run()
	if runErr != nil {
		return pricing.Bill{}, runErr
	}
	scale := float64(30*24*time.Hour) / float64(window)
	return env.BookFor(impl).Bill(env.UsageFor(impl)).Scale(scale), nil
}
