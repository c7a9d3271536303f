package main

import (
	"flag"

	"pgb/internal/graph"
)

// flags.go is the shared flag vocabulary of the pgb subcommands. Every
// flag that appears on more than one subcommand is registered through
// exactly one helper here, so its name, default, and help text cannot
// drift between commands:
//
//	flag       commands                        meaning
//	-jobs      grid commands, serve            parallelism budget
//	-snapshot  grid commands, ingest, serve    snapshot store directory
//	                                           (written by `pgb ingest`)
//	-data-dir  serve                           run-manifest directory

// addJobsFlag registers -jobs, the parallelism budget.
func addJobsFlag(fs *flag.FlagSet, def int, help string) *int {
	return fs.Int("jobs", def, help)
}

// addSnapshotFlag registers -snapshot, the snapshot store directory.
func addSnapshotFlag(fs *flag.FlagSet, def string) *string {
	return fs.String("snapshot", def,
		"snapshot store directory (written by `pgb ingest`); dataset references found there load from their CSR snapshots instead of being regenerated")
}

// addDataDirFlag registers -data-dir, the run-manifest directory.
func addDataDirFlag(fs *flag.FlagSet, def string) *string {
	return fs.String("data-dir", def, "directory for run manifests; manifests found at startup are adopted and resumed")
}

// openSnapshotStore opens the store named by a -snapshot flag; the
// empty string (flag unset) yields a nil store, meaning "generate
// in-process" everywhere a store is consulted.
func openSnapshotStore(dir string) (*graph.SnapshotStore, error) {
	if dir == "" {
		return nil, nil
	}
	return graph.OpenSnapshotStore(dir)
}
