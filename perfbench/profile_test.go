package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"testing"
)

func TestAttribute(t *testing.T) {
	for _, tc := range []struct {
		stack []string // innermost first
		want  string
	}{
		{[]string{"match/internal/apps/hpccg.spmv", "match/internal/apps/hpccg.(*App).Step", "match/internal/apps/appkit.RunMainLoop"}, "apps.hpccg"},
		{[]string{"match/internal/apps/appkit.Dot", "match/internal/apps/minife.(*App).Step"}, "appkit"},
		{[]string{"runtime.memmove", "match/internal/apps/lulesh.flux"}, "apps.lulesh"},
		// The park/wake pair of a process handoff, under simnet.
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable",
			"runtime.schedule", "runtime.park_m", "runtime.mcall", "runtime.gopark", "runtime.chanrecv",
			"runtime.chanrecv1", "match/internal/simnet.(*Proc).park", "match/internal/simnet.(*Proc).Sleep"}, "handoff"},
		// Scheduler work on an idle M, with no match/... frame at all.
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.mstart1"}, "handoff"},
		// simnet's own code, and an allocation inside it, stay simnet.
		{[]string{"match/internal/simnet.(*Scheduler).siftDown", "match/internal/simnet.(*Scheduler).Run"}, "simnet"},
		{[]string{"runtime.mallocgc", "match/internal/simnet.(*Cluster).StartProc"}, "simnet"},
		// GC wins wherever it runs.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "match/internal/apps/comd.(*App).Step"}, "gc"},
		{[]string{"match/internal/mpi.Send", "match/internal/apps/minivite.(*App).Step"}, "mpi"},
		{[]string{"match/internal/enc.PutF64s", "match/internal/fti.(*FTI).CheckpointAt"}, "fti"},
		{[]string{"match/internal/rs.encode"}, "fti"},
		{[]string{"match/internal/storage.(*System).Write"}, "fti"},
		{[]string{"match/internal/obs.(*Registry).Inc"}, "obs"},
		{[]string{"match/internal/trace.(*Recorder).Emit"}, "trace"},
		{[]string{"encoding/json.Marshal", "match/internal/core.CellKey"}, "core"},
		{[]string{"os.ReadFile", "match/internal/store.(*Store).Get"}, "store"},
		{[]string{"match/internal/detect.(*ring).tick"}, "designs"},
		{[]string{"match/perfbench.probeEvents", "main.main"}, "other"},
		{[]string{"encoding/json.Marshal", "match/perfbench.digest"}, "other"},
	} {
		if got := attribute(tc.stack); got != tc.want {
			t.Errorf("attribute(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"match/internal/apps/hpccg.(*App).spmv": "match/internal/apps/hpccg",
		"match/internal/mpi.Send.func1":         "match/internal/mpi",
		"runtime.chanrecv":                      "runtime",
		"match.Run":                             "match",
		"match/internal/simnet.procStart":       "match/internal/simnet",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb is a minimal protobuf encoder for building test profiles.
type pb struct{ bytes.Buffer }

func (b *pb) varint(x uint64) {
	for x >= 0x80 {
		b.WriteByte(byte(x) | 0x80)
		x >>= 7
	}
	b.WriteByte(byte(x))
}

func (b *pb) uint(num int, x uint64) { b.varint(uint64(num)<<3 | 0); b.varint(x) }

func (b *pb) msg(num int, payload []byte) {
	b.varint(uint64(num)<<3 | 2)
	b.varint(uint64(len(payload)))
	b.Write(payload)
}

func (b *pb) packed(num int, xs ...uint64) {
	var p pb
	for _, x := range xs {
		p.varint(x)
	}
	b.msg(num, p.Bytes())
}

// TestParseProfile decodes a hand-built gzipped profile: two functions,
// one location with an inlined frame, samples in packed and unpacked form.
func TestParseProfile(t *testing.T) {
	var prof pb
	for _, s := range []string{"", "samples", "count", "match/internal/apps/hpccg.spmv",
		"match/internal/apps/hpccg.(*App).Step", "runtime.chanrecv", "match/internal/simnet.(*Proc).park"} {
		prof.msg(6, []byte(s))
	}
	for id := uint64(1); id <= 4; id++ {
		var f pb
		f.uint(1, id)
		f.uint(2, id+2) // names are strings 3..6
		prof.msg(5, f.Bytes())
	}
	line := func(fn uint64) []byte {
		var l pb
		l.uint(1, fn)
		l.uint(2, 42)
		return l.Bytes()
	}
	loc := func(id uint64, fns ...uint64) {
		var l pb
		l.uint(1, id)
		for _, fn := range fns {
			l.msg(4, line(fn))
		}
		prof.msg(4, l.Bytes())
	}
	loc(10, 1, 2) // spmv inlined into Step
	loc(11, 3)
	loc(12, 4)
	var s1 pb
	s1.packed(1, 10)
	s1.packed(2, 3, 3e7)
	prof.msg(2, s1.Bytes())
	var s2 pb
	s2.uint(1, 11) // unpacked location ids
	s2.uint(1, 12)
	s2.packed(2, 1, 1e7)
	prof.msg(2, s2.Bytes())

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.Bytes())
	zw.Close()
	samples, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 || samples[0].n != 3 || samples[1].n != 1 {
		t.Fatalf("samples = %+v", samples)
	}
	if got := samples[0].funcs; len(got) != 2 || got[0] != "match/internal/apps/hpccg.spmv" {
		t.Fatalf("inlined frames = %v, want innermost first", got)
	}
	shares := layerShares(samples)
	if math.Abs(shares["apps.hpccg"]-0.75) > 1e-12 || math.Abs(shares["handoff"]-0.25) > 1e-12 {
		t.Fatalf("shares = %v, want apps.hpccg 0.75 and handoff 0.25", shares)
	}
	if _, err := parseProfile(prof.Bytes()[:prof.Len()-3]); err == nil {
		t.Fatal("truncated profile decoded without error")
	}
}

func TestParseCounts(t *testing.T) {
	text := `# TYPE match_sim_events_fired counter
match_sim_events_fired_total{design="restart"} 97
match_sim_events_fired_total{design="replica"} 194
match_mpi_messages_total{design="restart"} 5
match_sim_events_scheduled_total{design="restart"} 100
# EOF
`
	got := parseCounts([]byte(text))
	if got["obs.events_fired"] != 291 || got["obs.messages"] != 5 || got["obs.restores"] != 0 || len(got) != len(countFamilies) {
		t.Fatalf("counts = %v", got)
	}
}
