package baseline

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"pier/internal/blocking"
	"pier/internal/core"
	"pier/internal/dataset"
	"pier/internal/metablocking"
	"pier/internal/profile"
)

// goldenWorld is the increments of one seeded workload: a small DA dataset
// (Clean-Clean) or a small Census dataset (Dirty).
func goldenWorld(seed int64, dirty bool) (cleanClean bool, incs [][]*profile.Profile) {
	if dirty {
		return false, dataset.Census(0.0001, seed).Increments(8)
	}
	return true, dataset.DA(0.04, seed).Increments(8)
}

// goldenRun drives a baseline the way the stream runner does — block an
// increment, UpdateIndex, emit a batch of varying size — then drains it, and
// returns every dequeued comparison in order.
func goldenRun(s core.Strategy, cleanClean bool, incs [][]*profile.Profile) []metablocking.Comparison {
	col := blocking.NewCollection(cleanClean, 0)
	var seq []metablocking.Comparison
	emit := func(k int) {
		for n := 0; n < k; n++ {
			c, ok := s.Dequeue()
			if !ok {
				return
			}
			seq = append(seq, c)
		}
	}
	for i, inc := range incs {
		for _, p := range inc {
			col.Add(p)
		}
		s.UpdateIndex(col, inc)
		emit(5 + 40*(i%3))
	}
	s.UpdateIndex(col, nil)
	emit(math.MaxInt)
	return seq
}

// goldenHash folds an emission sequence — pair, weight bits and block size of
// every comparison, in order — into one FNV-64a value.
func goldenHash(seq []metablocking.Comparison) uint64 {
	h := fnv.New64a()
	var b [32]byte
	for _, c := range seq {
		binary.LittleEndian.PutUint64(b[0:], uint64(c.X))
		binary.LittleEndian.PutUint64(b[8:], uint64(c.Y))
		binary.LittleEndian.PutUint64(b[16:], math.Float64bits(c.Weight))
		binary.LittleEndian.PutUint64(b[24:], uint64(c.BSize))
		h.Write(b[:])
	}
	return h.Sum64()
}

// goldenStrategies are the baselines the pin covers, by reported name.
func goldenStrategies(cfg core.Config) []core.Strategy {
	return []core.Strategy{
		NewIBase(cfg),
		NewPBS(cfg, ScopeGlobal, ""),
		NewPBS(cfg, ScopeLocal, ""),
		NewPPS(cfg, ScopeGlobal, ""),
		NewPPS(cfg, ScopeLocal, ""),
		NewBatch(cfg),
	}
}

// TestBaselineEmissionGolden pins the full Dequeue sequence of every
// baseline under every weighting scheme: any change to how the baselines
// generate, weigh or order comparisons that reorders, adds or drops a single
// comparison — or moves one weight bit — fails here. The hashes were recorded
// while I-BASE and PPS still weighed with the map-based Accumulator and PBS
// with a binary-search pair weigher, so they hold the Kernel to that output.
func TestBaselineEmissionGolden(t *testing.T) {
	golden := map[string]struct {
		n    int
		hash uint64
	}{
		"seed=1/dirty=false/CBS/I-BASE":      {318, 0x15323de2483559e0},
		"seed=1/dirty=false/CBS/PBS-GLOBAL":  {8187, 0xdb8a4b207435e354},
		"seed=1/dirty=false/CBS/PBS-LOCAL":   {431, 0xe69c3b6f43c6c46},
		"seed=1/dirty=false/CBS/PPS-GLOBAL":  {8187, 0xe2a0bbb6eee1d2ff},
		"seed=1/dirty=false/CBS/PPS-LOCAL":   {431, 0x1591c1292ec76ff},
		"seed=1/dirty=false/CBS/BATCH":       {8187, 0xb9ad90274f0f6fea},
		"seed=1/dirty=false/JS/I-BASE":       {237, 0x5c68ff32debcacf2},
		"seed=1/dirty=false/JS/PBS-GLOBAL":   {8187, 0xdb8a4b207435e354},
		"seed=1/dirty=false/JS/PBS-LOCAL":    {431, 0xe69c3b6f43c6c46},
		"seed=1/dirty=false/JS/PPS-GLOBAL":   {8187, 0x86a844e8a0cf1d48},
		"seed=1/dirty=false/JS/PPS-LOCAL":    {431, 0x92d2872725a100bb},
		"seed=1/dirty=false/JS/BATCH":        {8187, 0xb9ad90274f0f6fea},
		"seed=1/dirty=false/ECBS/I-BASE":     {232, 0xdb5b92b7ac804562},
		"seed=1/dirty=false/ECBS/PBS-GLOBAL": {8187, 0xdb8a4b207435e354},
		"seed=1/dirty=false/ECBS/PBS-LOCAL":  {431, 0xe69c3b6f43c6c46},
		"seed=1/dirty=false/ECBS/PPS-GLOBAL": {8187, 0xe44c1737f94324e2},
		"seed=1/dirty=false/ECBS/PPS-LOCAL":  {431, 0xd4e4b524feb8be8e},
		"seed=1/dirty=false/ECBS/BATCH":      {8187, 0xb9ad90274f0f6fea},
		"seed=1/dirty=false/ARCS/I-BASE":     {262, 0x20624ca3c491dd60},
		"seed=1/dirty=false/ARCS/PBS-GLOBAL": {8187, 0xdb8a4b207435e354},
		"seed=1/dirty=false/ARCS/PBS-LOCAL":  {431, 0xe69c3b6f43c6c46},
		"seed=1/dirty=false/ARCS/PPS-GLOBAL": {8187, 0x9ccd76b33cca35a},
		"seed=1/dirty=false/ARCS/PPS-LOCAL":  {431, 0x32a3a67cbee0f2e3},
		"seed=1/dirty=false/ARCS/BATCH":      {8187, 0xb9ad90274f0f6fea},
		"seed=1/dirty=true/CBS/I-BASE":       {308, 0x6e0752cbaa8ad434},
		"seed=1/dirty=true/CBS/PBS-GLOBAL":   {17068, 0x4f69e9f275d14001},
		"seed=1/dirty=true/CBS/PBS-LOCAL":    {555, 0x229dcf972f904a28},
		"seed=1/dirty=true/CBS/PPS-GLOBAL":   {17068, 0xd10ef8848503adde},
		"seed=1/dirty=true/CBS/PPS-LOCAL":    {555, 0x58a34c14930054a3},
		"seed=1/dirty=true/CBS/BATCH":        {17068, 0x9e1ad7af40371ba7},
		"seed=1/dirty=true/JS/I-BASE":        {247, 0x5021dfdb29871e13},
		"seed=1/dirty=true/JS/PBS-GLOBAL":    {17068, 0x4f69e9f275d14001},
		"seed=1/dirty=true/JS/PBS-LOCAL":     {555, 0x229dcf972f904a28},
		"seed=1/dirty=true/JS/PPS-GLOBAL":    {17068, 0x394a73b662f49a79},
		"seed=1/dirty=true/JS/PPS-LOCAL":     {555, 0x7ae5fdceccb7723},
		"seed=1/dirty=true/JS/BATCH":         {17068, 0x9e1ad7af40371ba7},
		"seed=1/dirty=true/ECBS/I-BASE":      {255, 0x5d926d8c9af81672},
		"seed=1/dirty=true/ECBS/PBS-GLOBAL":  {17068, 0x4f69e9f275d14001},
		"seed=1/dirty=true/ECBS/PBS-LOCAL":   {555, 0x229dcf972f904a28},
		"seed=1/dirty=true/ECBS/PPS-GLOBAL":  {17068, 0x29d021a262a1f49c},
		"seed=1/dirty=true/ECBS/PPS-LOCAL":   {555, 0xb16e032d828a66f2},
		"seed=1/dirty=true/ECBS/BATCH":       {17068, 0x9e1ad7af40371ba7},
		"seed=1/dirty=true/ARCS/I-BASE":      {236, 0x56f5c341367a5b63},
		"seed=1/dirty=true/ARCS/PBS-GLOBAL":  {17068, 0x4f69e9f275d14001},
		"seed=1/dirty=true/ARCS/PBS-LOCAL":   {555, 0x229dcf972f904a28},
		"seed=1/dirty=true/ARCS/PPS-GLOBAL":  {17068, 0xd714ce00a559e780},
		"seed=1/dirty=true/ARCS/PPS-LOCAL":   {555, 0x1e72fc21ea5e5cb5},
		"seed=1/dirty=true/ARCS/BATCH":       {17068, 0x9e1ad7af40371ba7},
		"seed=7/dirty=false/CBS/I-BASE":      {285, 0xd500ccd1eb6ecd87},
		"seed=7/dirty=false/CBS/PBS-GLOBAL":  {8476, 0x69747f3a7e040db},
		"seed=7/dirty=false/CBS/PBS-LOCAL":   {432, 0x577e4cd728da554c},
		"seed=7/dirty=false/CBS/PPS-GLOBAL":  {8476, 0x776ddb005b265445},
		"seed=7/dirty=false/CBS/PPS-LOCAL":   {432, 0x7704193ff2ca6a15},
		"seed=7/dirty=false/CBS/BATCH":       {8476, 0x6318974eaccc3adc},
		"seed=7/dirty=false/JS/I-BASE":       {212, 0xb63461c3901c7329},
		"seed=7/dirty=false/JS/PBS-GLOBAL":   {8476, 0x69747f3a7e040db},
		"seed=7/dirty=false/JS/PBS-LOCAL":    {432, 0x577e4cd728da554c},
		"seed=7/dirty=false/JS/PPS-GLOBAL":   {8476, 0x2565890ec6287381},
		"seed=7/dirty=false/JS/PPS-LOCAL":    {432, 0x2879b1c333b28db7},
		"seed=7/dirty=false/JS/BATCH":        {8476, 0x6318974eaccc3adc},
		"seed=7/dirty=false/ECBS/I-BASE":     {212, 0x9decdb5473f914d7},
		"seed=7/dirty=false/ECBS/PBS-GLOBAL": {8476, 0x69747f3a7e040db},
		"seed=7/dirty=false/ECBS/PBS-LOCAL":  {432, 0x577e4cd728da554c},
		"seed=7/dirty=false/ECBS/PPS-GLOBAL": {8476, 0xe7be19144d8f4e45},
		"seed=7/dirty=false/ECBS/PPS-LOCAL":  {432, 0x3aa4395eb640c534},
		"seed=7/dirty=false/ECBS/BATCH":      {8476, 0x6318974eaccc3adc},
		"seed=7/dirty=false/ARCS/I-BASE":     {229, 0x3a78c68be9d1f2c6},
		"seed=7/dirty=false/ARCS/PBS-GLOBAL": {8476, 0x69747f3a7e040db},
		"seed=7/dirty=false/ARCS/PBS-LOCAL":  {432, 0x577e4cd728da554c},
		"seed=7/dirty=false/ARCS/PPS-GLOBAL": {8476, 0x195aae976acb3293},
		"seed=7/dirty=false/ARCS/PPS-LOCAL":  {432, 0xa4bf6175816b17cc},
		"seed=7/dirty=false/ARCS/BATCH":      {8476, 0x6318974eaccc3adc},
		"seed=7/dirty=true/CBS/I-BASE":       {330, 0x455c51663596c161},
		"seed=7/dirty=true/CBS/PBS-GLOBAL":   {17699, 0xf4f1d8ecb1d9cb1d},
		"seed=7/dirty=true/CBS/PBS-LOCAL":    {553, 0x313710c7bcf2a61},
		"seed=7/dirty=true/CBS/PPS-GLOBAL":   {17699, 0xb70958d5a739fe8e},
		"seed=7/dirty=true/CBS/PPS-LOCAL":    {553, 0xe1a8b5b98a76f4a3},
		"seed=7/dirty=true/CBS/BATCH":        {17699, 0xd5de03ab2fe0ed9b},
		"seed=7/dirty=true/JS/I-BASE":        {255, 0x3a75285bfc2d5790},
		"seed=7/dirty=true/JS/PBS-GLOBAL":    {17699, 0xf4f1d8ecb1d9cb1d},
		"seed=7/dirty=true/JS/PBS-LOCAL":     {553, 0x313710c7bcf2a61},
		"seed=7/dirty=true/JS/PPS-GLOBAL":    {17699, 0x76f451bd365fe860},
		"seed=7/dirty=true/JS/PPS-LOCAL":     {553, 0x395a7f5afc6af08a},
		"seed=7/dirty=true/JS/BATCH":         {17699, 0xd5de03ab2fe0ed9b},
		"seed=7/dirty=true/ECBS/I-BASE":      {264, 0x2b53954f501fc79a},
		"seed=7/dirty=true/ECBS/PBS-GLOBAL":  {17699, 0xf4f1d8ecb1d9cb1d},
		"seed=7/dirty=true/ECBS/PBS-LOCAL":   {553, 0x313710c7bcf2a61},
		"seed=7/dirty=true/ECBS/PPS-GLOBAL":  {17699, 0x506e237afc452584},
		"seed=7/dirty=true/ECBS/PPS-LOCAL":   {553, 0xbccd1178f0fc388b},
		"seed=7/dirty=true/ECBS/BATCH":       {17699, 0xd5de03ab2fe0ed9b},
		"seed=7/dirty=true/ARCS/I-BASE":      {260, 0x5ca7ba262bfd4eab},
		"seed=7/dirty=true/ARCS/PBS-GLOBAL":  {17699, 0xf4f1d8ecb1d9cb1d},
		"seed=7/dirty=true/ARCS/PBS-LOCAL":   {553, 0x313710c7bcf2a61},
		"seed=7/dirty=true/ARCS/PPS-GLOBAL":  {17699, 0xbe41c8219c9bebca},
		"seed=7/dirty=true/ARCS/PPS-LOCAL":   {553, 0xff26adf403afbc8a},
		"seed=7/dirty=true/ARCS/BATCH":       {17699, 0xd5de03ab2fe0ed9b},
	}
	for _, seed := range []int64{1, 7} {
		for _, dirty := range []bool{false, true} {
			cleanClean, incs := goldenWorld(seed, dirty)
			for _, scheme := range []metablocking.Scheme{metablocking.CBS, metablocking.JSScheme, metablocking.ECBS, metablocking.ARCS} {
				cfg := core.DefaultConfig()
				cfg.Scheme = scheme
				for _, s := range goldenStrategies(cfg) {
					key := fmt.Sprintf("seed=%d/dirty=%v/%v/%s", seed, dirty, scheme, s.Name())
					seq := goldenRun(s, cleanClean, incs)
					got := goldenHash(seq)
					want, ok := golden[key]
					if !ok {
						t.Errorf("no golden for %s: {%d, %#x}", key, len(seq), got)
						continue
					}
					if len(seq) != want.n || got != want.hash {
						t.Errorf("%s: %d comparisons hash %#x, golden %d hash %#x", key, len(seq), got, want.n, want.hash)
					}
				}
			}
		}
	}
}
