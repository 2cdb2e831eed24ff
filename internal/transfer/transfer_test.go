package transfer

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"
)

func setup(t *testing.T, opts Options) (*Service, string, string) {
	t.Helper()
	s := NewService(opts)
	srcRoot, dstRoot := t.TempDir(), t.TempDir()
	if _, err := s.RegisterEndpoint("defiant", "ACE Defiant scratch", srcRoot); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterEndpoint("orion", "Frontier Orion", dstRoot); err != nil {
		t.Fatal(err)
	}
	return s, srcRoot, dstRoot
}

func writeFile(t *testing.T, root, rel string, content []byte) {
	t.Helper()
	path := filepath.Join(root, rel)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestTransferMovesFiles(t *testing.T) {
	s, src, dst := setup(t, Options{VerifyChecksum: true})
	writeFile(t, src, "out/a.nc", []byte("alpha"))
	writeFile(t, src, "out/b.nc", []byte("bravo-bravo"))
	id, err := s.Submit("defiant", "orion", []Item{
		{Src: "out/a.nc", Dst: "in/a.nc"},
		{Src: "out/b.nc", Dst: "in/b.nc"},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != Succeeded || st.FilesDone != 2 || st.BytesDone != 16 {
		t.Fatalf("status %+v", st)
	}
	got, err := os.ReadFile(filepath.Join(dst, "in/b.nc"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "bravo-bravo" {
		t.Fatalf("content %q", got)
	}
	if st.Completed.Before(st.Submitted) {
		t.Fatal("completion before submission")
	}
}

func TestTransferMissingSourceFails(t *testing.T) {
	s, _, _ := setup(t, Options{})
	id, err := s.Submit("defiant", "orion", []Item{{Src: "nope.nc", Dst: "x.nc"}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != Failed || len(st.Errors) != 1 {
		t.Fatalf("status %+v", st)
	}
}

func TestSubmitValidation(t *testing.T) {
	s, _, _ := setup(t, Options{})
	if _, err := s.Submit("defiant", "orion", nil); err == nil {
		t.Error("empty items accepted")
	}
	if _, err := s.Submit("defiant", "orion", []Item{{Src: "../etc/passwd", Dst: "x"}}); err == nil {
		t.Error("path traversal accepted")
	}
	if _, err := s.Submit("nowhere", "orion", []Item{{Src: "a", Dst: "b"}}); err == nil {
		t.Error("unknown endpoint accepted")
	}
	if _, err := s.RegisterEndpoint("defiant", "dup", t.TempDir()); err == nil {
		t.Error("duplicate endpoint accepted")
	}
}

func TestChecksumRetryRecoversFromCorruption(t *testing.T) {
	// 50% of copies are corrupted; checksum + retries must still land all
	// files intact.
	s, src, dst := setup(t, Options{
		VerifyChecksum: true,
		FailureRate:    0.5,
		RetryLimit:     10,
		Seed:           3,
	})
	content := []byte("the quick brown granule jumps over the lazy archive")
	for _, name := range []string{"a.nc", "b.nc", "c.nc", "d.nc"} {
		writeFile(t, src, name, content)
	}
	id, err := s.SubmitDir("defiant", "orion", ".", "landing")
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != Succeeded {
		t.Fatalf("status %+v", st)
	}
	for _, name := range []string{"a.nc", "b.nc", "c.nc", "d.nc"} {
		got, err := os.ReadFile(filepath.Join(dst, "landing", name))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(content) {
			t.Fatalf("%s corrupted after checksum-verified transfer", name)
		}
	}
}

func TestCorruptionWithoutVerifyCanLandBadBytes(t *testing.T) {
	// Sanity check on the fault injector itself: without checksums, a
	// 100% corruption rate must land at least one damaged file.
	s, src, dst := setup(t, Options{FailureRate: 1.0, Seed: 7})
	writeFile(t, src, "x.nc", []byte("payload-payload"))
	id, err := s.Submit("defiant", "orion", []Item{{Src: "x.nc", Dst: "x.nc"}})
	if err != nil {
		t.Fatal(err)
	}
	st, _ := s.Wait(context.Background(), id)
	if st.State != Succeeded {
		t.Fatalf("status %+v", st)
	}
	got, err := os.ReadFile(filepath.Join(dst, "x.nc"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) == "payload-payload" {
		t.Fatal("fault injector did not corrupt")
	}
}

func TestSubmitDirPreservesTree(t *testing.T) {
	s, src, dst := setup(t, Options{VerifyChecksum: true})
	writeFile(t, src, "day1/g1/tiles.nc", []byte("1"))
	writeFile(t, src, "day1/g2/tiles.nc", []byte("22"))
	writeFile(t, src, "day1/readme.txt", []byte("333"))
	writeFile(t, src, "day1/g2/tiles.nc.4711.tmp", []byte("a writer's staging file"))
	id, err := s.SubmitDir("defiant", "orion", "day1", "archive/day1")
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != Succeeded || st.FilesTotal != 3 {
		t.Fatalf("status %+v", st)
	}
	for _, rel := range []string{"archive/day1/g1/tiles.nc", "archive/day1/g2/tiles.nc", "archive/day1/readme.txt"} {
		if _, err := os.Stat(filepath.Join(dst, rel)); err != nil {
			t.Fatalf("missing %s: %v", rel, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dst, "archive/day1/g2/tiles.nc.4711.tmp")); err == nil {
		t.Fatal("shipped an in-flight staging file")
	}
}

func TestStatusWhileActiveAndUnknownTask(t *testing.T) {
	s, _, _ := setup(t, Options{})
	if _, err := s.Status("task-999999"); err == nil {
		t.Error("unknown task status accepted")
	}
	if _, err := s.Wait(context.Background(), "task-999999"); err == nil {
		t.Error("unknown task wait accepted")
	}
}

func TestWaitRespectsContext(t *testing.T) {
	s, src, _ := setup(t, Options{})
	// Many files to keep the task alive a moment.
	for i := 0; i < 50; i++ {
		writeFile(t, src, filepath.Join("d", string(rune('a'+i%26))+".nc"), make([]byte, 1<<16))
	}
	id, err := s.SubmitDir("defiant", "orion", "d", "d")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Wait(ctx, id); err == nil {
		// The task may legitimately have finished before the cancelled
		// context was observed; accept either outcome but require that a
		// pre-cancelled context cannot hang.
		st, _ := s.Status(id)
		if st.State == Active {
			t.Fatal("cancelled wait returned nil on active task")
		}
	}
	// Drain the background task so TempDir cleanup doesn't race with the
	// copier goroutines.
	if _, err := s.Wait(context.Background(), id); err != nil {
		t.Fatal(err)
	}
}

// Property: transfers preserve content byte-for-byte for arbitrary
// payloads, with checksums on and fault injection active.
func TestTransferIntegrityProperty(t *testing.T) {
	s, src, dst := setup(t, Options{VerifyChecksum: true, FailureRate: 0.3, RetryLimit: 8, Seed: 11})
	count := 0
	prop := func(payload []byte) bool {
		count++
		name := filepath.Join("p", "f"+time.Now().Format("150405.000000000")+"-"+string(rune('a'+count%26))+".bin")
		writeFile(t, src, name, payload)
		id, err := s.Submit("defiant", "orion", []Item{{Src: name, Dst: name}})
		if err != nil {
			return false
		}
		st, err := s.Wait(context.Background(), id)
		if err != nil || st.State != Succeeded {
			return false
		}
		got, err := os.ReadFile(filepath.Join(dst, name))
		if err != nil {
			return false
		}
		return string(got) == string(payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
