package snapshot

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/mem"
)

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
