// Command wimcctl is the client for the wimcd experiment service.
//
// Usage:
//
//	wimcctl [-addr URL] run SPEC.json     submit, stream progress, print results
//	wimcctl [-addr URL] submit SPEC.json  submit and print the job summary
//	wimcctl [-addr URL] status JOB-ID     print one job summary
//	wimcctl [-addr URL] jobs              list jobs
//	wimcctl [-addr URL] results JOB-ID    print a finished job's results
//	wimcctl [-addr URL] get KEY           print one cached Result by key
//	wimcctl [-addr URL] version           print server engine version
//	wimcctl expand SPEC.json              expand a spec locally (no daemon)
//	wimcctl hash SPEC.json                print a spec's content hash locally
//
// run -expect-cached exits with status 3 if any point missed the cache —
// CI uses it to prove a resubmitted experiment is served entirely from the
// content-addressed store.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"wimc/internal/daemon"
	"wimc/internal/spec"
)

// exitCacheMiss is the run -expect-cached failure status.
const exitCacheMiss = 3

func usage() {
	fmt.Fprintf(os.Stderr, `usage: wimcctl [flags] <command> [args]

commands:
  run SPEC.json      submit, stream progress to stderr, print results JSON
  submit SPEC.json   submit and print the accepted job summary
  status JOB-ID      print one job summary
  jobs               list jobs in submission order
  results JOB-ID     print a finished job's full results (blocks)
  get KEY            print one cached Result by content address
  version            print the server's engine version and store
  expand SPEC.json   expand a spec locally and print its points
  hash SPEC.json     print a spec's content hash locally

flags:
`)
	flag.PrintDefaults()
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8585", "wimcd base URL")
	expectCached := flag.Bool("expect-cached", false,
		fmt.Sprintf("with run: exit %d unless every point is served from the cache", exitCacheMiss))
	quiet := flag.Bool("q", false, "with run: suppress per-point progress on stderr")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	c := &daemon.Client{Base: *addr}
	cmd, args := flag.Arg(0), flag.Args()[1:]
	if err := dispatch(c, cmd, args, *expectCached, *quiet); err != nil {
		fmt.Fprintf(os.Stderr, "wimcctl: %v\n", err)
		var cm cacheMissError
		if ok := errorsAs(err, &cm); ok {
			os.Exit(exitCacheMiss)
		}
		os.Exit(1)
	}
}

// cacheMissError marks a run -expect-cached failure.
type cacheMissError struct{ misses int }

func (e cacheMissError) Error() string {
	return fmt.Sprintf("expected a fully cached run, but %d point(s) missed the cache", e.misses)
}

// errorsAs is errors.As for the one error type we branch on.
func errorsAs(err error, target *cacheMissError) bool {
	cm, ok := err.(cacheMissError)
	if ok {
		*target = cm
	}
	return ok
}

func oneArg(cmd string, args []string) (string, error) {
	if len(args) != 1 {
		return "", fmt.Errorf("%s takes exactly one argument", cmd)
	}
	return args[0], nil
}

func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func dispatch(c *daemon.Client, cmd string, args []string, expectCached, quiet bool) error {
	switch cmd {
	case "run":
		file, err := oneArg(cmd, args)
		if err != nil {
			return err
		}
		return run(c, file, expectCached, quiet)
	case "submit":
		file, err := oneArg(cmd, args)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		sum, err := c.Submit(data)
		if err != nil {
			return err
		}
		return printJSON(sum)
	case "status":
		id, err := oneArg(cmd, args)
		if err != nil {
			return err
		}
		sum, err := c.Job(id)
		if err != nil {
			return err
		}
		return printJSON(sum)
	case "jobs":
		if len(args) != 0 {
			return fmt.Errorf("jobs takes no arguments")
		}
		jobs, err := c.Jobs()
		if err != nil {
			return err
		}
		return printJSON(jobs)
	case "results":
		id, err := oneArg(cmd, args)
		if err != nil {
			return err
		}
		res, err := c.Results(id)
		if err != nil {
			return err
		}
		return printJSON(res)
	case "get":
		key, err := oneArg(cmd, args)
		if err != nil {
			return err
		}
		r, ok, err := c.Result(key)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("no cached result under %s", key)
		}
		return printJSON(r)
	case "version":
		if len(args) != 0 {
			return fmt.Errorf("version takes no arguments")
		}
		v, err := c.Version()
		if err != nil {
			return err
		}
		return printJSON(v)
	case "expand":
		file, err := oneArg(cmd, args)
		if err != nil {
			return err
		}
		sp, err := parseFile(file)
		if err != nil {
			return err
		}
		pts, err := sp.Expand()
		if err != nil {
			return err
		}
		return printJSON(pts)
	case "hash":
		file, err := oneArg(cmd, args)
		if err != nil {
			return err
		}
		sp, err := parseFile(file)
		if err != nil {
			return err
		}
		h, err := sp.Hash()
		if err != nil {
			return err
		}
		fmt.Println(h)
		return nil
	default:
		return fmt.Errorf("unknown command %q (run wimcctl with no arguments for usage)", cmd)
	}
}

func parseFile(file string) (*spec.Spec, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	return spec.Parse(data)
}

// run is the submit + stream + results round trip.
func run(c *daemon.Client, file string, expectCached, quiet bool) error {
	data, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	sum, err := c.Submit(data)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wimcctl: job %s (%d points, spec %s)\n", sum.ID, sum.Total, sum.Hash)
	err = c.Stream(sum.ID, func(e daemon.Event) error {
		switch e.Type {
		case "point":
			if !quiet {
				src := "ran"
				if e.Cached {
					src = "cached"
				}
				label := ""
				if len(e.Labels) > 0 {
					label = " " + joinLabels(e.Labels)
				}
				fmt.Fprintf(os.Stderr, "wimcctl: [%d/%d]%s %s (%s)\n", e.Done, e.Total, label, e.Key[:16], src)
			}
		case "error":
			return fmt.Errorf("experiment failed: %s", e.Error)
		case "done":
			fmt.Fprintf(os.Stderr, "wimcctl: done: %d cached, %d ran\n", e.Stats.Hits, e.Stats.Misses)
		}
		return nil
	})
	if err != nil {
		return err
	}
	res, err := c.Results(sum.ID)
	if err != nil {
		return err
	}
	if err := printJSON(res); err != nil {
		return err
	}
	if expectCached && res.Stats != nil && res.Stats.Misses > 0 {
		return cacheMissError{misses: res.Stats.Misses}
	}
	return nil
}

func joinLabels(labels []string) string {
	out := ""
	for i, l := range labels {
		if i > 0 {
			out += "/"
		}
		out += l
	}
	return out
}
