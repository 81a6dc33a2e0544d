// Command statefsck checks (and optionally repairs) a campaign state
// directory after a crash, a kill, or a lying disk. It classifies every
// file — valid checkpoint, corrupt snapshot, version mismatch, orphaned
// temp litter, satisfied steal claim, delta with unverifiable lineage —
// and in -repair mode quarantines the bad and sweeps the litter so the
// next `experiments -resume` rebuilds exactly the damaged suffix.
// Lineage is read from the bases deltas record, not from stage names:
// a delta is kept while its base is the payload hash of a kept checkpoint.
//
// Usage:
//
//	statefsck -state-dir state/                 # scan, report, touch nothing
//	statefsck -state-dir state/ -repair         # quarantine + sweep
//	statefsck -state-dir state/ -json           # machine-readable report
//
// Exit status: 0 when the directory is clean, 1 when findings demand
// attention (scan) or were repaired, 2 on usage or I/O error. Resuming
// runs invoke the same scan automatically; the command exists for
// operators who want to look before resuming, or to audit a directory
// a fleet member still owns (-min-tmp-age protects live writers' temp
// files in that case).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"clientmap/internal/statefsck"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("statefsck: ")
	var (
		dir       = flag.String("state-dir", "", "campaign state directory to check (required)")
		repair    = flag.Bool("repair", false, "execute the planned repairs (default: scan only)")
		asJSON    = flag.Bool("json", false, "emit the report as JSON instead of text")
		minTmpAge = flag.Duration("min-tmp-age", 0, "leave temp files younger than this alone (live writers)")
	)
	flag.Parse()
	if *dir == "" {
		log.Println("-state-dir is required")
		os.Exit(2)
	}

	opts := statefsck.Options{MinTmpAge: *minTmpAge}
	var (
		rep *statefsck.Report
		err error
	)
	if *repair {
		rep, err = statefsck.Repair(nil, *dir, opts)
	} else {
		rep, err = statefsck.Scan(nil, *dir, opts)
	}
	if err != nil {
		log.Println(err)
		os.Exit(2)
	}

	if *asJSON {
		out, jerr := rep.JSON()
		if jerr != nil {
			log.Println(jerr)
			os.Exit(2)
		}
		fmt.Println(string(out))
	} else {
		fmt.Print(rep.Text())
	}
	if rep.Problems() > 0 {
		os.Exit(1)
	}
}
