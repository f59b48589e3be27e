package snapshot

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/mem"
	"repro/internal/pagetable"
)

// CheckpointCosts prices the dump side of CRIU (step A1 of Figure 6):
// freezing the cgroup, walking the process tree, and writing the image.
type CheckpointCosts struct {
	// Freeze is the cgroup.freeze round trip.
	Freeze time.Duration
	// PerThread is seizing + register capture per thread.
	PerThread time.Duration
	// PerRegion is /proc/pid/smaps parsing + VMA capture per region.
	PerRegion time.Duration
	// DumpBandwidth is the memory-image write rate.
	DumpBandwidth float64 // bytes/s
}

// DefaultCheckpointCosts returns dump-side constants.
func DefaultCheckpointCosts() CheckpointCosts {
	return CheckpointCosts{
		Freeze:        2 * time.Millisecond,
		PerThread:     30 * time.Microsecond,
		PerRegion:     10 * time.Microsecond,
		DumpBandwidth: 1.5 * (1 << 30),
	}
}

// Checkpoint captures running address spaces into a Snapshot — the
// offline A1 step that the platform later preprocesses into consolidated
// images and mm-templates. Regions keep their layout and protections;
// content keys are per-function (a checkpoint of a live process has no
// a-priori dedup identity — dedup happens when Preprocess interns
// identical content). It returns the snapshot and the dump latency.
func Checkpoint(function string, spaces []*pagetable.AddressSpace, threads, fds int, costs CheckpointCosts) (*Snapshot, time.Duration, error) {
	if len(spaces) == 0 {
		return nil, 0, fmt.Errorf("snapshot: checkpoint of %q with no processes", function)
	}
	if threads < len(spaces) {
		return nil, 0, fmt.Errorf("snapshot: %d threads for %d processes", threads, len(spaces))
	}
	snap := &Snapshot{Function: function}
	regions := 0
	var dumpBytes int64
	for pi, as := range spaces {
		proc := ProcessImage{Name: fmt.Sprintf("proc%d", pi), FDs: fds / len(spaces)}
		for _, v := range as.VMAs() {
			proc.Regions = append(proc.Regions, Region{
				Name:  v.Name,
				Bytes: v.Bytes(),
				Prot:  v.Prot,
				Kind:  v.Kind,
			})
			regions++
			dumpBytes += v.Bytes()
		}
		snap.Procs = append(snap.Procs, proc)
	}
	// Thread distribution: first process gets the remainder.
	per := threads / len(spaces)
	snap.Procs[0].Threads = threads - per*(len(spaces)-1)
	for i := 1; i < len(snap.Procs); i++ {
		snap.Procs[i].Threads = per
	}
	d := costs.Freeze +
		time.Duration(threads)*costs.PerThread +
		time.Duration(regions)*costs.PerRegion +
		time.Duration(float64(dumpBytes)/costs.DumpBandwidth*float64(time.Second))
	return snap, d, nil
}

// imageHeader guards the serialized format.
type imageHeader struct {
	Magic   string `json:"magic"`
	Version int    `json:"version"`
}

const (
	imageMagic   = "trenv-criu-image"
	imageVersion = 1
)

type imageFile struct {
	Header   imageHeader `json:"header"`
	Snapshot *Snapshot   `json:"snapshot"`
}

// WriteImage serializes a snapshot as a CRIU-style image file.
func WriteImage(w io.Writer, snap *Snapshot) error {
	enc := json.NewEncoder(w)
	return enc.Encode(imageFile{
		Header:   imageHeader{Magic: imageMagic, Version: imageVersion},
		Snapshot: snap,
	})
}

// ReadImage parses an image file written by WriteImage, validating the
// header and the snapshot's internal consistency.
func ReadImage(r io.Reader) (*Snapshot, error) {
	var f imageFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("snapshot: parse image: %w", err)
	}
	if f.Header.Magic != imageMagic {
		return nil, fmt.Errorf("snapshot: bad image magic %q", f.Header.Magic)
	}
	if f.Header.Version != imageVersion {
		return nil, fmt.Errorf("snapshot: unsupported image version %d", f.Header.Version)
	}
	if f.Snapshot == nil || f.Snapshot.Function == "" || len(f.Snapshot.Procs) == 0 {
		return nil, fmt.Errorf("snapshot: image is missing snapshot data")
	}
	for pi := range f.Snapshot.Procs {
		p := &f.Snapshot.Procs[pi]
		if p.Threads < 1 || p.FDs < 0 {
			return nil, fmt.Errorf("snapshot: image proc %d has threads=%d fds=%d", pi, p.Threads, p.FDs)
		}
		for _, reg := range p.Regions {
			if reg.Bytes <= 0 || reg.Bytes%mem.PageSize != 0 {
				return nil, fmt.Errorf("snapshot: image region %q has %d bytes", reg.Name, reg.Bytes)
			}
		}
	}
	return f.Snapshot, nil
}
