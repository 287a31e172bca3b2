package main

import (
	"encoding/binary"
	"fmt"

	"superfast/internal/flash"
	"superfast/internal/ftl"
	"superfast/internal/pv"
	"superfast/internal/ssd"
)

// devSpec sizes one simulated SSD. The device model (chip variation) is
// fixed: the workload seed shapes only the op stream fed to it.
type devSpec struct {
	chips, blocks, layers int
	pageSize              int // bytes
	gcStep                int // preemptive GC pages per step
}

func (s devSpec) config() (flash.Geometry, ssd.Config) {
	g := flash.Geometry{
		Chips:          s.chips,
		PlanesPerChip:  1,
		BlocksPerPlane: s.blocks,
		Layers:         s.layers,
		Strings:        4,
		PageSize:       s.pageSize,
		SpareSize:      s.pageSize / 8,
	}
	cfg := ssd.DefaultConfig()
	cfg.FTL.Overprovision = 0.2
	cfg.FTL.GCStepPages = s.gcStep
	return g, cfg
}

func (s devSpec) array() (*flash.Array, ssd.Config, error) {
	g, cfg := s.config()
	p := pv.DefaultParams()
	p.Layers = g.Layers
	p.Strings = g.Strings
	arr, err := flash.NewArray(g, pv.New(p), flash.DefaultECC())
	return arr, cfg, err
}

// newDevice builds the device and writes every logical page once.
func (s devSpec) newDevice() (*ssd.ConcurrentDevice, error) {
	arr, cfg, err := s.array()
	if err != nil {
		return nil, err
	}
	dev, err := ssd.NewConcurrent(arr, cfg)
	if err != nil {
		return nil, err
	}
	if err := dev.FillSequential(nil); err != nil {
		return nil, fmt.Errorf("fill: %w", err)
	}
	return dev, nil
}

// newFTL builds a bare FTL over the same geometry, filled the same way, for
// the rung that calls the FTL directly.
func (s devSpec) newFTL() (*ftl.FTL, error) {
	arr, cfg, err := s.array()
	if err != nil {
		return nil, err
	}
	f, err := ftl.New(arr, cfg.FTL)
	if err != nil {
		return nil, err
	}
	for lpn := int64(0); lpn < f.Capacity(); lpn++ {
		if _, err := f.Write(lpn, nil); err != nil {
			return nil, fmt.Errorf("fill at lpn %d: %w", lpn, err)
		}
	}
	return f, nil
}

// stamp builds an n-byte payload identifying one write of one page: the
// LPN and the write's version, then a xorshift pattern seeded by both.
func stamp(n int, lpn int64, version uint64) []byte {
	b := make([]byte, n)
	binary.LittleEndian.PutUint64(b, uint64(lpn))
	binary.LittleEndian.PutUint64(b[8:], version)
	x := patternSeed(lpn, version)
	for i := 16; i+8 <= n; i += 8 {
		x = xorshift(x)
		binary.LittleEndian.PutUint64(b[i:], x)
	}
	return b
}

// stampOK reports whether data is exactly stamp(n, lpn, version); version
// 0 stands for the fill, which wrote an empty page.
func stampOK(data []byte, n int, lpn int64, version uint64) bool {
	if version == 0 {
		return len(data) == 0
	}
	if len(data) != n || binary.LittleEndian.Uint64(data) != uint64(lpn) ||
		binary.LittleEndian.Uint64(data[8:]) != version {
		return false
	}
	x := patternSeed(lpn, version)
	for i := 16; i+8 <= n; i += 8 {
		x = xorshift(x)
		if binary.LittleEndian.Uint64(data[i:]) != x {
			return false
		}
	}
	return true
}

func patternSeed(lpn int64, version uint64) uint64 {
	return uint64(lpn)*0x9e3779b97f4a7c15 ^ version | 1
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}
