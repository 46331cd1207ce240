package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"parmp"
	"parmp/internal/cspace"
	"parmp/internal/geom"
	"parmp/internal/graph"
	"parmp/internal/knn"
	"parmp/internal/metrics"
	"parmp/internal/rng"
	"parmp/internal/serve"
)

// serve-mixed sizing: the tenant, the lo rate, the request mix and the
// mutation cadence. The run is serveCycles cycles of an open-loop lo
// block (serveLoShare of the cycle) and a closed-loop hi block;
// serveHiMaxQPS only bounds how many hi requests are generated.
//
// The mix and the cadence are the repository's own load-generator
// defaults, not tuned here: single queries are hot with probability
// serveHotShare over serveHotPairs pairs (cmd/mploadgen -hot 0.5
// -hot-pairs 64), and the blocker moves once per serveMutEvery
// dispatched queries (the CI mutating smoke runs mploadgen
// -mutate-every 250; a batch counts as its pairs, as the server counts
// it). One request in serveBatchEvery is a /v1/batch of
// serveBatchSize pairs, the server's default BatchMax, so a client batch
// is as large as the biggest batch the server would coalesce itself.
const (
	serveEnv        = "med-cube"
	serveRounds     = 8
	serveSamples    = 16
	serveSetups     = 9
	serveLoQPS      = 55.0
	serveHiMaxQPS   = 1000.0
	serveLoShare    = 0.75
	serveCycles     = 5
	serveHotShare   = 0.5
	serveHotPairs   = 64
	serveBatchEvery = 32
	serveBatchSize  = 32
	serveBatchGoals = 2
	serveLimit      = 50 * time.Millisecond // the latency limit; lo's p99 is under it
	serveMutEvery   = 250
	serveK          = 8
	serveSetupLimit = 60 * time.Second
)

// serveReq is one generated request, its body encoded before timing.
type serveReq struct {
	class  byte // 'H'ot, 'C'old or 'B'atch
	body   []byte
	starts []parmp.Config // the pairs asked, for checking the answer
	goals  []parmp.Config
}

// answer is one returned path with the window in which it was answered.
type answer struct {
	start, goal parmp.Config
	path        [][]float64
	sent, done  time.Duration
}

// mutation is one committed blocker move and its window.
type mutation struct {
	world      *parmp.Environment
	sent, done time.Duration
}

// servedTenant is a running server with its one tenant grown.
type servedTenant struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
}

func (st *servedTenant) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st.hs.Shutdown(ctx)
	<-st.served
	st.srv.Close()
	st.client.CloseIdleConnections()
}

// startTenant starts a server on a loopback port and grows the spec's
// tenant to grow_done. This is the workload's set-up.
func startTenant(spec serve.Spec, probe serve.QueryRequest) (*servedTenant, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st := &servedTenant{
		srv:    serve.New(serve.Config{BatchWorkers: par, GrowRounds: serveRounds}),
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: par, MaxIdleConnsPerHost: par, DisableCompression: true,
		}},
	}
	st.hs = &http.Server{Handler: st.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { st.served <- st.hs.Serve(ln) }()
	var qr serve.QueryResponse
	if code, err := st.post("/v1/query", probe, &qr); err != nil || code != http.StatusOK {
		st.stop()
		return nil, fmt.Errorf("first query: status %d: %v", code, err)
	}
	for deadline := time.Now().Add(serveSetupLimit); ; time.Sleep(2 * time.Millisecond) {
		var stats serve.StatsResponse
		err := st.get("/v1/stats", &stats)
		switch {
		case err != nil:
		case len(stats.Tenants) != 1:
			err = fmt.Errorf("/v1/stats lists %d tenants, want 1", len(stats.Tenants))
		case stats.Tenants[0].GrowError != "":
			err = fmt.Errorf("growth failed: %s", stats.Tenants[0].GrowError)
		case stats.Tenants[0].GrowDone:
			return st, nil
		case time.Now().After(deadline):
			err = fmt.Errorf("tenant not grown after %v", serveSetupLimit)
		default:
			continue
		}
		st.stop()
		return nil, err
	}
}

func (st *servedTenant) post(path string, body any, out any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	return st.postRaw(path, b, out)
}

func (st *servedTenant) postRaw(path string, body []byte, out any) (int, error) {
	resp, err := st.client.Post(st.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

func (st *servedTenant) get(path string, out any) error {
	resp, err := st.client.Get(st.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// serveSpec is the tenant: a med-cube PRM grown serveRounds rounds.
func serveSpec() serve.Spec {
	return serve.Spec{Env: serveEnv, Procs: 8, Samples: serveSamples, Seed: 1, Rounds: serveRounds}
}

// genServe generates the request mix. Every endpoint passes
// Space.Valid; cold endpoints are fresh samples, so no cold pair repeats
// within a run, and every run starts a fresh server, so none repeats
// across runs either.
func genServe(space *parmp.Space, spec serve.Spec, seed uint64, n int) ([]serveReq, [][2]parmp.Config, error) {
	r := rng.Derive(seed, 0x5e7e)
	var sampleErr error
	free := func() parmp.Config {
		q, ok := space.SampleFreeIn(space.Bounds, r, 1024, nil)
		if !ok && sampleErr == nil {
			sampleErr = fmt.Errorf("no free configuration found in %s", serveEnv)
		}
		return q
	}
	hot := make([][2]parmp.Config, serveHotPairs)
	for i := range hot {
		hot[i] = [2]parmp.Config{free(), free()}
	}
	reqs := make([]serveReq, n)
	for i := range reqs {
		rq := &reqs[i]
		var body any
		switch {
		case i%serveBatchEvery == serveBatchEvery-1:
			rq.class = 'B'
			goals := make([]parmp.Config, serveBatchGoals)
			for g := range goals {
				goals[g] = free()
			}
			br := serve.BatchRequest{Spec: spec}
			for q := 0; q < serveBatchSize; q++ {
				s, g := free(), goals[q%serveBatchGoals]
				rq.starts, rq.goals = append(rq.starts, s), append(rq.goals, g)
				br.Queries = append(br.Queries, serve.BatchQuery{Start: s, Goal: g, K: serveK})
			}
			body = br
		case r.Float64() < serveHotShare:
			rq.class = 'H'
			p := hot[r.Intn(len(hot))]
			rq.starts, rq.goals = []parmp.Config{p[0]}, []parmp.Config{p[1]}
			body = serve.QueryRequest{Spec: spec, Start: p[0], Goal: p[1], K: serveK}
		default:
			rq.class = 'C'
			s, g := free(), free()
			rq.starts, rq.goals = []parmp.Config{s}, []parmp.Config{g}
			body = serve.QueryRequest{Spec: spec, Start: s, Goal: g, K: serveK}
		}
		b, err := json.Marshal(body)
		if err != nil {
			return nil, nil, err
		}
		rq.body = b
	}
	return reqs, hot, sampleErr
}

// serveRun is the measured part of a serve-mixed run: the requests,
// what came back for each, and every returned path.
type serveRun struct {
	st      *servedTenant
	spec    serve.Spec
	reqs    []serveReq
	base    time.Time
	results []served
	sent    atomic.Int64 // queries dispatched so far; a batch counts each pair
	mu      sync.Mutex
	answers []answer
}

// served is one request's response.
type served struct {
	status     int // -1: transport error
	serveUS    float64
	sent, done time.Duration
	hit        bool
	batchSize  int
}

// do sends request i and records its response and returned paths.
func (r *serveRun) do(i int) {
	rq, res := &r.reqs[i], &r.results[i]
	r.sent.Add(int64(len(rq.starts)))
	res.sent = time.Since(r.base)
	var got []answer
	var err error
	if rq.class == 'B' {
		var br serve.BatchResponse
		res.status, err = r.st.postRaw("/v1/batch", rq.body, &br)
		res.done = time.Since(r.base)
		if err == nil && res.status == http.StatusOK {
			res.serveUS = br.ServeUS
			for q, a := range br.Results {
				if a.OK {
					got = append(got, answer{rq.starts[q], rq.goals[q], a.Path, res.sent, res.done})
				}
			}
		}
	} else {
		var qr serve.QueryResponse
		res.status, err = r.st.postRaw("/v1/query", rq.body, &qr)
		res.done = time.Since(r.base)
		if err == nil && res.status == http.StatusOK {
			res.serveUS, res.hit, res.batchSize = qr.ServeUS, qr.CacheHit, qr.BatchSize
			if qr.OK {
				got = append(got, answer{rq.starts[0], rq.goals[0], qr.Path, res.sent, res.done})
			}
		}
	}
	if err != nil {
		res.status = -1
	}
	r.addAnswers(got...)
}

func (r *serveRun) addAnswers(a ...answer) {
	if len(a) == 0 {
		return
	}
	r.mu.Lock()
	r.answers = append(r.answers, a...)
	r.mu.Unlock()
}

// mutationLog is the mutator's state across lo blocks and what it did.
type mutationLog struct {
	bl                 *blocker
	next               int // the hot pair the next mutation blocks
	attempted, failed  int
	committed          []mutation
	clientMS, repairMS []float64
	checked, removed   int
}

// mutate moves the blocker onto the current path of the next hot pair
// once per serveMutEvery dispatched queries, as mploadgen -mutate-every
// does, then probes that pair again, until stop closes.
func (r *serveRun) mutate(log *mutationLog, hot [][2]parmp.Config, stop <-chan struct{}) {
	bl := log.bl
	for last := int64(0); ; log.next++ {
		for r.sent.Load()-last < serveMutEvery {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
		last = r.sent.Load()
		p := hot[log.next%len(hot)]
		q := serve.QueryRequest{Spec: r.spec, Start: p[0], Goal: p[1], K: serveK}
		var before serve.QueryResponse
		if code, err := r.st.post("/v1/query", q, &before); err != nil || code != http.StatusOK || !before.OK || len(before.Path) < 2 {
			continue // the pair is unsolved now: nothing on it to block
		}
		_, specs, world, err := bl.move(before.Path[len(before.Path)/2])
		if err != nil {
			continue
		}
		log.attempted++
		var mr serve.MutateResponse
		sent := time.Since(r.base)
		code, err := r.st.post("/v1/env/mutate", serve.MutateRequest{Spec: r.spec, Mutations: specs}, &mr)
		done := time.Since(r.base)
		if err != nil || code != http.StatusOK {
			log.failed++
			continue
		}
		bl.commit(world)
		log.committed = append(log.committed, mutation{world, sent, done})
		log.clientMS = append(log.clientMS, ms(done-sent))
		log.repairMS = append(log.repairMS, mr.ServeUS/1e3)
		log.checked += mr.CheckedEdges
		log.removed += mr.RemovedNodes
		var after serve.QueryResponse
		s2 := time.Since(r.base)
		if code, err := r.st.post("/v1/query", q, &after); err == nil && code == http.StatusOK && after.OK {
			r.addAnswers(answer{p[0], p[1], after.Path, s2, time.Since(r.base)})
		}
	}
}

// runServeMixed drives an in-process server in alternating blocks of two
// phases: an open loop at the lo rate while a mutator keeps moving a
// blocker onto hot paths, and a closed loop on every connection, which
// holds the server at its knee. It then checks every returned path
// against the worlds it could have been answered in.
func runServeMixed(rc runCtx) *outcome {
	o := newOutcome()
	e0 := parmp.EnvironmentByName(serveEnv)
	space := parmp.NewPointSpace(e0)
	spec := serveSpec()
	cycle := rc.seconds / serveCycles
	loBlock := int(serveLoQPS * cycle * serveLoShare)
	hiD := time.Duration(cycle * (1 - serveLoShare) * float64(time.Second))
	nLo := loBlock * serveCycles
	reqs, hot, err := genServe(space, spec, rc.seed, nLo+int(serveHiMaxQPS*hiD.Seconds()*serveCycles))
	if err != nil {
		o.problem("generating inputs: %v", err)
		return o
	}

	var setupS []float64
	var st *servedTenant
	probe := serve.QueryRequest{Spec: spec, Start: hot[0][0], Goal: hot[0][1], K: serveK}
	for k := 0; k < serveSetups; k++ {
		if st != nil {
			st.stop()
		}
		t := time.Now()
		st, err = startTenant(spec, probe)
		setupS = append(setupS, time.Since(t).Seconds())
		if err != nil {
			o.problem("set-up: %v", err)
			return o
		}
	}
	defer st.stop()

	// The lo and hi phases alternate in serveCycles blocks, so that each
	// phase samples the whole run rather than one stretch of it. The
	// mutator runs through both.
	r := &serveRun{st: st, spec: spec, reqs: reqs, base: time.Now(), results: make([]served, len(reqs))}
	muts := &mutationLog{bl: newBlocker(e0)}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		r.mutate(muts, hot, stop)
	}()
	var lo, hi []timing
	var hiSecs float64
	var heaps []float64
	hiNext := nLo
	for c := 0; c < serveCycles; c++ {
		first := c * loBlock
		lo = append(lo, openLoop(schedule(0, serveLoQPS, loBlock), par, func(i int) { r.do(first + i) })...)
		// The live heap holds the tenant and the path cache; taken
		// before a hi block, whose request count follows the server's
		// speed.
		heaps = append(heaps, heapLiveMB())
		t := time.Now()
		h := closedLoop(len(reqs)-hiNext, par, hiD, func(i int) { r.do(hiNext + i) })
		hiSecs += time.Since(t).Seconds()
		hi = append(hi, h...)
		hiNext += len(h)
	}
	close(stop)
	<-done
	if hiNext == len(reqs) {
		o.problem("the closed loop ran out of its %d generated requests", len(reqs)-nLo)
	}

	// Latency is timed from each request's due time; a failed or refused
	// request misses every limit.
	var loMS, hiMS, lateMS, serverUS, gapUS []float64
	var good, hits, singles, batched, batchSum int
	for i, t := range append(lo, hi...) {
		res := r.results[i]
		lat := ms(t.latency())
		o.attempted++
		if res.status != http.StatusOK {
			o.failed++
			lat = math.Inf(1)
		}
		if i < nLo {
			loMS = append(loMS, lat)
			lateMS = append(lateMS, ms(t.late()))
			if res.status == http.StatusOK {
				serverUS = append(serverUS, res.serveUS)
				gapUS = append(gapUS, float64((res.done-res.sent).Nanoseconds())/1e3-res.serveUS)
			}
		} else {
			hiMS = append(hiMS, lat)
			if lat <= ms(serveLimit) {
				good++
			}
		}
		if reqs[i].class != 'B' && res.status == http.StatusOK {
			singles++
			if res.hit {
				hits++
			} else if res.batchSize > 0 {
				batched++
				batchSum += res.batchSize
			}
		}
	}
	o.attempted += muts.attempted
	o.failed += muts.failed

	var stats serve.StatsResponse
	if err := st.get("/v1/stats", &stats); err != nil || len(stats.Tenants) != 1 {
		o.problem("reading /v1/stats: %v", err)
		return o
	}

	// Every returned path must join its endpoints and be free in a world
	// that was current at some moment while it was being answered; once a
	// mutation's response is in, the world before it is not.
	stale := 0
	for _, a := range r.answers {
		if !answerValid(a, e0, muts.committed) {
			stale++
		}
	}
	if stale > 0 {
		o.problem("%d of %d returned paths are not valid in any world current while they were answered", stale, len(r.answers))
	}

	los, his := summarize(loMS), summarize(hiMS)
	o.show("setup_s", "setup_s", measure{quantile(setupS, 50), "s", len(setupS)})
	o.show("heap_live_mb", "heap_live_mb", measure{quantile(heaps, 50), "MB", len(heaps)})
	o.show("op_p50_ms", "query_p50_ms", measure{los.P50, "ms", los.N})
	o.show("op_tail_ms", "query_p90_ms", measure{quantile(loMS, 90), "ms", los.N})
	if los.TailP > 90 {
		o.shown = append(o.shown, named{fmt.Sprintf("query_p%g_ms", los.TailP), measure{los.Tail, "ms", los.N}})
	}
	o.shown = append(o.shown, named{fmt.Sprintf("query_p%g_ms_hi", his.TailP), measure{his.Tail, "ms", his.N}})
	o.show("throughput_per_s", "goodput_qps_hi", measure{float64(good) / hiSecs, "1/s", his.N})
	o.show("mutate_p50_ms", "mutate_p50_ms", measure{quantile(muts.clientMS, 50), "ms", len(muts.clientMS)})

	if rc.tr != nil {
		for i, res := range r.results[:len(lo)+len(hi)] {
			name := "serve.Query"
			if reqs[i].class == 'B' {
				name = "serve.Batch"
			}
			rc.tr.record(name, 0, int64(i+1), r.base.Add(res.sent), r.base.Add(res.done))
		}
		srv, gap := summarize(serverUS), summarize(gapUS)
		o.layer["serve.server_us_p50"] = measure{srv.P50, "us", srv.N}
		o.layer["serve.server_us_p99"] = measure{quantile(serverUS, 99), "us", srv.N}
		o.layer["serve.gap_us_p50"] = measure{gap.P50, "us", gap.N}
		o.layer["serve.gap_us_p99"] = measure{quantile(gapUS, 99), "us", gap.N}
		o.layer["serve.cache_hit_frac"] = measure{float64(hits) / float64(max(singles, 1)), "frac", singles}
		o.layer["serve.batch_mean"] = measure{float64(batchSum) / float64(max(batched, 1)), "count", batched}
		o.layer["serve.rejected"] = measure{float64(stats.Tenants[0].Rejected), "count", 1}
		o.layer["serve.repair_ms"] = measure{quantile(muts.repairMS, 50), "ms", len(muts.repairMS)}
		o.layer["serve.query_p99_ms_lo"] = measure{quantile(loMS, 99), "ms", los.N}
		o.layer["serve.query_p99_ms_hi"] = measure{quantile(hiMS, 99), "ms", his.N}
		n := max(len(muts.repairMS), 1)
		o.layer["repair.checked_edges"] = measure{float64(muts.checked) / float64(n), "count", len(muts.repairMS)}
		o.layer["repair.removed_nodes"] = measure{float64(muts.removed) / float64(n), "count", len(muts.repairMS)}
		o.layer["gen.late_p99_ms"] = measure{quantile(lateMS, 99), "ms", len(lateMS)}
		queryLayers(o, rc.tr, space, spec, reqs[:nLo])
	}
	return o
}

// answerValid reports whether a returned path joins its endpoints and is
// free in one of the worlds current while it was answered: the world of
// the last mutation whose response arrived before the query was sent,
// through that of the last mutation sent before the answer arrived.
func answerValid(a answer, e0 *parmp.Environment, muts []mutation) bool {
	if len(a.path) < 2 || !parmp.Config(a.path[0]).Equal(a.start, 0) || !parmp.Config(a.path[len(a.path)-1]).Equal(a.goal, 0) {
		return false
	}
	path := make([]parmp.Config, len(a.path))
	for i, q := range a.path {
		path[i] = q
	}
	first, last := 0, 0 // world indices; 0 is the unmutated world
	for k, m := range muts {
		if m.done <= a.sent {
			first = k + 1
		}
		if m.sent <= a.done {
			last = k + 1
		}
	}
	for w := first; w <= last; w++ {
		world := e0
		if w > 0 {
			world = muts[w-1].world
		}
		if cspace.PathValid(parmp.NewPointSpace(world), path, nil) {
			return true
		}
	}
	return false
}

// queryLayers times the query layers in process on a replica of the
// tenant's engine (same spec, so the same roadmap): kd nearest-neighbour
// lookups at the mix's cold endpoints, Snapshot.Query on the cold pairs
// and Snapshot.QueryBatch on the batches.
func queryLayers(o *outcome, tr *tracer, space *parmp.Space, spec serve.Spec, reqs []serveReq) {
	eng, err := parmp.NewEngine(space, parmp.Options{
		Procs: spec.Procs, SamplesPerRegion: spec.Samples, NodesPerRegion: spec.Samples,
		Seed: spec.Seed, Strategy: parmp.Repartition,
	})
	if err == nil {
		err = eng.GrowN(context.Background(), spec.Rounds)
	}
	if err != nil {
		o.problem("query replica: %v", err)
		return
	}
	snap := eng.Snapshot()
	m := snap.PRM().Roadmap
	pts := make([]geom.Vec, m.NumNodes())
	for i := range pts {
		pts[i] = geom.Vec(m.G.Vertex(graph.ID(i)).Q)
	}
	kd := knn.Build(pts)
	var queryUS, batchUS []float64
	var nearestNS float64
	var lookups, batchQueries int
	for i, rq := range reqs {
		switch rq.class {
		case 'C':
			t := time.Now()
			kd.Nearest(geom.Vec(rq.starts[0]), serveK)
			kd.Nearest(geom.Vec(rq.goals[0]), serveK)
			nearestNS += float64(time.Since(t).Nanoseconds())
			lookups += 2
			t = time.Now()
			snap.Query(rq.starts[0], rq.goals[0], serveK)
			queryUS = append(queryUS, float64(time.Since(t).Nanoseconds())/1e3)
			tr.record("prm.Query", 0, int64(i+1), t, time.Now())
		case 'B':
			t := time.Now()
			snap.QueryBatch(rq.starts, rq.goals, serveK)
			batchUS = append(batchUS, float64(time.Since(t).Nanoseconds())/1e3)
			batchQueries += len(rq.starts)
			tr.record("prm.QueryBatch", 0, int64(i+1), t, time.Now())
		}
	}
	q := summarize(queryUS)
	o.layer["knn.nearest_ns_per_query"] = measure{nearestNS / float64(max(lookups, 1)), "ns", lookups}
	o.layer["prm.query_us_p50"] = measure{q.P50, "us", q.N}
	o.layer["prm.query_us_p99"] = measure{quantile(queryUS, 99), "us", q.N}
	o.layer["prm.batch_us_per_query"] = measure{metrics.Sum(batchUS) / float64(max(batchQueries, 1)), "us", batchQueries}
	res := snap.PRM()
	vtLayers(o, res.PhaseReports, res.TotalTime, res.MigratedRegions)
}
