// Command pgb drives the PGB benchmark from the command line. Each
// subcommand regenerates one artifact of the paper:
//
//	pgb datasets                     Table VI  (dataset statistics)
//	pgb table7   [flags]             Table VII (overall best counts)
//	pgb table12  [flags]             Table XII (per-query best counts)
//	pgb time     [flags]             Table IX  (generation time)
//	pgb memory   [flags]             Table X   (memory consumption)
//	pgb complexity                   Table VIII (theoretical complexity)
//	pgb fig2     [flags]             Fig. 2    (error vs ε series)
//	pgb fig7     [flags]             Fig. 7    (DER comparison)
//	pgb verify   -alg {dpdk,tmf,privskg}   appendix verification
//	pgb generate -alg A -dataset D -eps E  one synthetic graph to stdout
//	pgb ingest   -snapshot DIR             persist datasets as CSR snapshots
//	pgb serve    -addr :8080 -data-dir DIR benchmark-as-a-service HTTP API
//	pgb fidelity -out FIDELITY_PR.json     pinned-grid fidelity manifest
//	pgb version                            build identification
//
// Common flags: -scale (dataset size factor, default 0.1), -reps
// (repetitions per cell, default 3), -seed, -eps (comma list), -algs,
// -datasets, -queries (comma lists), -jobs (concurrent grid cells),
// -checkpoint FILE (durable JSONL run manifest), -resume FILE (continue
// an interrupted checkpointed run), -snapshot DIR (resolve datasets
// through an ingested snapshot store), -v (progress to stderr). Shared
// flags are defined once in flags.go.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"pgb/internal/core"
	"pgb/internal/datasets"
	"pgb/internal/graph"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	args := os.Args[2:]
	var err error
	switch cmd {
	case "datasets":
		err = cmdDatasets(args)
	case "table7", "table12", "time", "memory", "fig2", "all", "html", "csv", "stability", "types":
		err = cmdGrid(cmd, args)
	case "recommend":
		err = cmdRecommend(args)
	case "complexity":
		fmt.Print(core.FormatTable8())
	case "fig7":
		err = cmdFig7(args)
	case "verify":
		err = cmdVerify(args)
	case "generate":
		err = cmdGenerate(args)
	case "ingest":
		err = cmdIngest(args)
	case "report":
		err = cmdReport(args)
	case "ablation":
		err = cmdAblation(args)
	case "ldp":
		err = cmdLDP(args)
	case "serve":
		err = cmdServe(args)
	case "fidelity":
		err = cmdFidelity(args)
	case "version":
		cmdVersion()
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "pgb: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pgb %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: pgb <command> [flags]

commands:
  datasets    print Table VI (dataset statistics at the chosen scale)
  table7      print Table VII (best counts per dataset and epsilon)
  table12     print Table XII (best counts per query)
  time        print Table IX (generation time)
  memory      print Table X (memory consumption; runs single-threaded)
  complexity  print Table VIII (theoretical complexity)
  fig2        print the Fig. 2 error-vs-epsilon series
  fig7        print the Fig. 7 DER comparison
  verify      print appendix verification (-alg dpdk|tmf|privskg)
  generate    run one algorithm once and print the synthetic graph
              (-format edgelist|csv|dot)
  report      extended multi-metric report for one (alg, dataset, eps) cell
  ablation    run a design-choice ablation (-name tmf-filter|dpdk-sensitivity|
              dpdk-order|dgg-construction|privgraph-split|privhrg-mcmc)
  ldp         compare the Edge-LDP extension mechanisms (LDPGen, RNL) with
              the centralised DGG on one dataset
  html        one grid run rendered as a standalone HTML results page
  csv         one grid run exported as CSV (per-query mean and stddev)
  stability   per-algorithm repeatability (coefficient of variation)
  types       best counts aggregated by graph domain (Table II taxonomy)
  recommend   mechanism selection guidelines for a scenario
              (-nodes N -acc A -eps E [-queries CD,Mod] [-measured])
  ingest      generate datasets once and persist them as binary CSR
              snapshots in a store directory (-snapshot DIR -datasets
              A,B -scale S -seed N); later runs open them in O(file)
  serve       benchmark-as-a-service HTTP API (-addr :8080 -data-dir DIR
              -jobs N); async grid runs with SSE progress, cancellation,
              result caching, crash recovery from run manifests, and
              dataset resolution from the snapshot store (-snapshot DIR,
              default DATA_DIR/snapshots)
  fidelity    run the pinned fidelity grid across its pinned seeds and
              write the per-(cell, query) error distribution with
              tolerance intervals (-out FIDELITY_PR.json); gate it with
              cmd/fidelitygate against FIDELITY_BASELINE.json
  version     print the build identification (also GET /version)

grid commands accept -jobs N (parallel cells), -checkpoint FILE
(durable JSONL run manifest; rerun with the same path to resume),
-resume FILE (continue an interrupted run, restoring its configuration)
and -snapshot DIR (resolve datasets through a store written by pgb
ingest; results are identical either way).`)
}

type gridFlags struct {
	fs         *flag.FlagSet
	scale      *float64
	reps       *int
	seed       *int64
	epsStr     *string
	algsStr    *string
	dsStr      *string
	queriesStr *string
	distance   *string
	verbose    *bool
	jobs       *int
	checkpoint *string
	resume     *string
	snapshot   *string
	store      *graph.SnapshotStore // opened by config() when -snapshot is set
}

func newGridFlags(name string) *gridFlags {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	g := &gridFlags{
		fs:         fs,
		scale:      fs.Float64("scale", 0.1, "dataset size factor in (0,1]; 1 = paper sizes"),
		reps:       fs.Int("reps", 3, "repetitions per cell (paper: 10)"),
		seed:       fs.Int64("seed", 42, "master random seed"),
		epsStr:     fs.String("eps", "", "comma-separated privacy budgets (default paper grid)"),
		algsStr:    fs.String("algs", "", "comma-separated algorithm subset"),
		dsStr:      fs.String("datasets", "", "comma-separated dataset subset"),
		queriesStr: fs.String("queries", "", "comma-separated query symbols to evaluate, e.g. CD,Mod,DegDist (default: all fifteen)"),
		distance:   fs.String("distance", "", "distance-query estimator: auto (exact small/sampled large, the default), exact, sampled, or anf (HyperANF, bounded error)"),
		verbose:    fs.Bool("v", false, "print per-cell progress to stderr"),
		jobs:       addJobsFlag(fs, 0, "max concurrent grid cells (0 = GOMAXPROCS); results are identical at any -jobs"),
		checkpoint: fs.String("checkpoint", "", "stream finished cells to this JSONL run manifest; rerunning with the same path resumes an interrupted run"),
		resume:     fs.String("resume", "", "resume from this run manifest, restoring its whole grid configuration (other grid flags are ignored)"),
		snapshot:   addSnapshotFlag(fs, ""),
	}
	return g
}

// openStore opens the -snapshot store (if any) and wires it into cfg.
// The store is execution-only: it changes where datasets come from,
// never what they contain, so configuration digests and results are
// identical with and without it.
func (g *gridFlags) openStore(cfg *core.Config) error {
	st, err := openSnapshotStore(*g.snapshot)
	if err != nil {
		return err
	}
	if st != nil {
		g.store = st
		cfg.Store = st
	}
	return nil
}

// close releases the -snapshot store; call after the run's results are
// fully rendered (store-backed graphs view mapped memory).
func (g *gridFlags) close() {
	if g.store != nil {
		_ = g.store.Close() // read-only mappings; nothing to recover at exit
	}
}

// config builds the run configuration from the flags. With -resume the
// configuration comes from the manifest instead, and only -v and -jobs
// still apply.
func (g *gridFlags) config() (core.Config, error) {
	if *g.resume != "" {
		cfg, err := core.CheckpointConfig(*g.resume)
		if err != nil {
			return core.Config{}, err
		}
		if *g.jobs > 0 {
			cfg.Workers = *g.jobs
		}
		if *g.verbose {
			cfg.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
		}
		return cfg, g.openStore(&cfg)
	}
	cfg := core.Config{
		Scale:          *g.scale,
		Reps:           *g.reps,
		Seed:           *g.seed,
		Workers:        *g.jobs,
		CheckpointPath: *g.checkpoint,
	}
	if *g.epsStr != "" {
		for _, tok := range strings.Split(*g.epsStr, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
			if err != nil {
				return cfg, fmt.Errorf("bad -eps value %q: %w", tok, err)
			}
			cfg.Epsilons = append(cfg.Epsilons, v)
		}
	}
	if *g.algsStr != "" {
		cfg.Algorithms = splitList(*g.algsStr)
	}
	if *g.dsStr != "" {
		cfg.Datasets = splitList(*g.dsStr)
	}
	if *g.queriesStr != "" {
		qs, err := core.ParseQueries(splitList(*g.queriesStr))
		if err != nil {
			return cfg, err
		}
		cfg.Queries = qs
	}
	if *g.distance != "" {
		mode, err := core.ParseDistanceMode(*g.distance)
		if err != nil {
			return cfg, err
		}
		cfg.DistanceMode = mode
	}
	if *g.verbose {
		cfg.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}
	return cfg, g.openStore(&cfg)
}

func splitList(s string) []string {
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if t := strings.TrimSpace(p); t != "" {
			out = append(out, t)
		}
	}
	return out
}

func cmdDatasets(args []string) error {
	gf := newGridFlags("datasets")
	if err := gf.fs.Parse(args); err != nil {
		return err
	}
	fmt.Printf("%-10s %10s %10s %8s %10s %10s %8s   %s\n",
		"Graph", "paper|V|", "paper|E|", "pACC", "|V|", "|E|", "ACC", "Type")
	for _, spec := range datasets.All() {
		g := spec.Load(*gf.scale, *gf.seed)
		s := datasets.Summarize(spec, g)
		fmt.Printf("%-10s %10d %10d %8.4f %10d %10d %8.4f   %s\n",
			s.Name, spec.PaperNodes, spec.PaperEdges, spec.PaperACC, s.Nodes, s.Edges, s.ACC, s.Type)
	}
	return nil
}

func cmdGrid(which string, args []string) error {
	gf := newGridFlags(which)
	if err := gf.fs.Parse(args); err != nil {
		return err
	}
	cfg, err := gf.config()
	if err != nil {
		return err
	}
	defer gf.close()
	if which == "memory" {
		// Allocation measurement needs isolation: GenBytes deltas taken
		// while other cells run in the same process are inflated. A
		// checkpointed manifest may hold cells measured under
		// parallelism (the digest deliberately ignores Workers), so
		// restoring them here would silently corrupt Table X.
		if *gf.resume != "" || *gf.checkpoint != "" {
			return fmt.Errorf("memory measures allocations in isolation; -checkpoint/-resume are not supported")
		}
		cfg.Workers = 1
	}
	res, err := core.Run(cfg)
	if err != nil {
		return err
	}
	switch which {
	case "table7":
		fmt.Print(res.FormatTable7())
	case "table12":
		fmt.Print(res.FormatTable12())
	case "time":
		fmt.Print(res.FormatTable9())
	case "memory":
		fmt.Print(res.FormatTable10())
	case "fig2":
		fmt.Print(res.FormatFig2())
	case "all":
		// one grid run, every artifact it supports (memory excluded: the
		// allocation measurement needs a dedicated single-threaded run)
		fmt.Println(res.FormatDatasets())
		fmt.Println(res.FormatTable7())
		fmt.Println(res.FormatTable12())
		fmt.Println(res.FormatTable9())
		fmt.Println(res.FormatFig2())
	case "html":
		// static results page — the offline analogue of the PGB platform
		return core.WriteHTMLReport(os.Stdout, res)
	case "csv":
		return core.WriteCSV(os.Stdout, res)
	case "stability":
		fmt.Print(res.FormatStability())
	case "types":
		fmt.Print(res.FormatTypeAnalysis())
	}
	return nil
}

func cmdFig7(args []string) error {
	gf := newGridFlags("fig7")
	if err := gf.fs.Parse(args); err != nil {
		return err
	}
	out, err := core.Fig7(*gf.scale, *gf.reps, *gf.seed)
	if err != nil {
		return err
	}
	fmt.Print(out)
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	alg := fs.String("alg", "dpdk", "which verification to run: dpdk, tmf or privskg")
	scale := fs.Float64("scale", 0.25, "dataset size factor")
	reps := fs.Int("reps", 3, "repetitions")
	seed := fs.Int64("seed", 42, "master random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var (
		out string
		err error
	)
	switch *alg {
	case "dpdk":
		out, err = core.VerifyDPdK(*scale, *reps, *seed)
	case "tmf":
		out, err = core.VerifyTmF(*scale, *reps, *seed)
	case "privskg":
		out, err = core.VerifyPrivSKG(*scale, *seed)
	default:
		return fmt.Errorf("unknown -alg %q", *alg)
	}
	if err != nil {
		return err
	}
	fmt.Print(out)
	return nil
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	algName := fs.String("alg", "TmF", "algorithm name")
	dsName := fs.String("dataset", "Facebook", "dataset name")
	eps := fs.Float64("eps", 1.0, "privacy budget")
	scale := fs.Float64("scale", 0.1, "dataset size factor")
	seed := fs.Int64("seed", 42, "random seed")
	format := fs.String("format", "edgelist", "output format: edgelist, csv or dot")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := datasets.ByName(*dsName)
	if err != nil {
		return err
	}
	g := spec.Load(*scale, *seed)
	alg, err := core.NewAlgorithm(*algName)
	if err != nil {
		return err
	}
	rng := randNew(*seed + 1)
	syn, err := alg.Generate(g, *eps, rng)
	if err != nil {
		return err
	}
	switch *format {
	case "edgelist":
		return graph.WriteEdgeList(os.Stdout, syn)
	case "csv":
		return core.WriteEdgeCSV(os.Stdout, syn)
	case "dot":
		return graph.WriteDOT(os.Stdout, syn, nil)
	default:
		return fmt.Errorf("unknown -format %q (want edgelist, csv or dot)", *format)
	}
}
