// mlpipeline runs the paper's machine-learning training workflow in all
// six Table II implementation styles (plus the inference workflow in
// its three styles) on the small dataset and prints the latency/cost
// comparison — a miniature of the paper's §V-A.
//
//	go run ./examples/mlpipeline
package main

import (
	"fmt"
	"io"
	"os"

	"statebench/internal/core"
	"statebench/internal/obs"
	"statebench/internal/workloads/mlinfer"
	"statebench/internal/workloads/mlpipe"
	"statebench/internal/workloads/mltrain"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mlpipeline:", err)
		os.Exit(1)
	}
}

// run measures both ML workflows in every style they deploy to, 10
// warm iterations each, and writes the comparison tables to w.
func run(w io.Writer) error {
	opt := core.DefaultMeasureOptions()
	opt.Iters = 10

	fmt.Fprintln(w, "training the real pipeline once (encoder, scaler, PCA, models)...")
	arts, err := mlpipe.Train(mlpipe.Small)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "best fit: %s (validation MSE %.3e), model %d KB\n\n",
		arts.BestName, arts.BestMSE, len(arts.ModelBytes[arts.BestName])/1024)

	train := mltrain.New(mlpipe.Small)
	tbl := obs.Table{Header: []string{"impl", "median E2E", "p99 E2E", "GB-s/run", "txns/run", "cost/run"}}
	for _, impl := range train.Impls() {
		s, err := core.Measure(train, impl, opt)
		if err != nil {
			return err
		}
		tbl.AddRow(string(impl),
			obs.FormatDuration(s.E2E.Median()),
			obs.FormatDuration(s.E2E.P99()),
			fmt.Sprintf("%.2f", s.MeanGBs),
			fmt.Sprintf("%.0f", s.MeanTxns),
			fmt.Sprintf("$%.6f", s.MeanBill.Total()))
	}
	fmt.Fprintln(w, "ML training workflow (small dataset, 10 warm iterations):")
	fmt.Fprintln(w, tbl.String())

	infer := mlinfer.New(mlpipe.Small)
	tbl2 := obs.Table{Header: []string{"impl", "median E2E", "p99 E2E"}}
	for _, impl := range infer.Impls() {
		s, err := core.Measure(infer, impl, opt)
		if err != nil {
			return err
		}
		tbl2.AddRow(string(impl), obs.FormatDuration(s.E2E.Median()), obs.FormatDuration(s.E2E.P99()))
	}
	fmt.Fprintln(w, "ML inference workflow:")
	fmt.Fprintln(w, tbl2.String())
	fmt.Fprintln(w, "note: on the small dataset the winning model is tiny, so AWS's")
	fmt.Fprintln(w, "per-run model fetch+deserialize penalty vanishes and AWS wins.")
	fmt.Fprintln(w, "Run `statebench fig9` (large dataset, ~MB model) for the paper's")
	fmt.Fprintln(w, "result: Azure ~2x faster because entities hold the model warm.")
	return nil
}
