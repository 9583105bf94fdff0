package ftlcore

import (
	"testing"
	"testing/quick"

	"repro/internal/ocssd"
)

func TestPageMapLookupUpdate(t *testing.T) {
	m := NewPageMap(1000)
	if m.Len() != 1000 {
		t.Fatalf("len = %d", m.Len())
	}
	if _, ok := m.Lookup(5); ok {
		t.Fatal("fresh map should be unmapped")
	}
	ppa := ocssd.PPA{Group: 1, PU: 2, Chunk: 3, Sector: 4}
	old, had, err := m.Update(5, ppa)
	if err != nil || had {
		t.Fatalf("first update: old=%v had=%v err=%v", old, had, err)
	}
	got, ok := m.Lookup(5)
	if !ok || got != ppa {
		t.Fatalf("lookup = %v, %v", got, ok)
	}
	ppa2 := ocssd.PPA{Group: 0, PU: 0, Chunk: 1, Sector: 9}
	old, had, err = m.Update(5, ppa2)
	if err != nil || !had || old != ppa {
		t.Fatalf("second update: old=%v had=%v err=%v", old, had, err)
	}
	if m.MappedCount() != 1 {
		t.Fatalf("mapped = %d, want 1", m.MappedCount())
	}
}

func TestPageMapBounds(t *testing.T) {
	m := NewPageMap(10)
	if _, _, err := m.Update(-1, ocssd.PPA{}); err == nil {
		t.Fatal("negative lpn should fail")
	}
	if _, _, err := m.Update(10, ocssd.PPA{}); err == nil {
		t.Fatal("lpn == len should fail")
	}
	if _, ok := m.Lookup(-1); ok {
		t.Fatal("negative lookup should miss")
	}
	if _, _, err := m.Unmap(11); err == nil {
		t.Fatal("out-of-range unmap should fail")
	}
}

func TestPageMapUnmap(t *testing.T) {
	m := NewPageMap(10)
	ppa := ocssd.PPA{Chunk: 1, Sector: 2}
	if _, _, err := m.Update(3, ppa); err != nil {
		t.Fatal(err)
	}
	old, had, err := m.Unmap(3)
	if err != nil || !had || old != ppa {
		t.Fatalf("unmap: %v %v %v", old, had, err)
	}
	if _, ok := m.Lookup(3); ok {
		t.Fatal("lookup after unmap should miss")
	}
	if _, had, _ := m.Unmap(3); had {
		t.Fatal("double unmap should report no old mapping")
	}
}

func TestPageMapDirtyTracking(t *testing.T) {
	m := NewPageMap(MapPageEntries * 3)
	if len(m.DirtyPages()) != 0 {
		t.Fatal("fresh map should be clean")
	}
	m.Update(0, ocssd.PPA{Sector: 1})                       // page 0
	m.Update(int64(MapPageEntries), ocssd.PPA{Sector: 2})   // page 1
	m.Update(int64(MapPageEntries)+5, ocssd.PPA{Sector: 3}) // page 1 again
	dirty := m.DirtyPages()
	if len(dirty) != 2 {
		t.Fatalf("dirty = %v, want 2 pages", dirty)
	}
	m.ClearDirty(dirty)
	if len(m.DirtyPages()) != 0 {
		t.Fatal("clear dirty failed")
	}
	m.Unmap(0)
	if len(m.DirtyPages()) != 1 {
		t.Fatal("unmap should dirty its page")
	}
}

func TestPageMapSerializeRoundTrip(t *testing.T) {
	m := NewPageMap(MapPageEntries + 100) // 2 pages, second partial
	for i := int64(0); i < int64(m.Len()); i += 7 {
		m.Update(i, ocssd.PPA{Group: int(i % 4), Chunk: int(i % 50), Sector: int(i % 90)})
	}
	if m.Pages() != 2 {
		t.Fatalf("pages = %d", m.Pages())
	}
	m2 := NewPageMap(m.Len())
	for p := 0; p < m.Pages(); p++ {
		data, err := m.SerializePage(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != MapPageBytes {
			t.Fatalf("page %d serialized to %d bytes", p, len(data))
		}
		if err := m2.LoadPage(p, data); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < int64(m.Len()); i++ {
		a, okA := m.Lookup(i)
		b, okB := m2.Lookup(i)
		if okA != okB || a != b {
			t.Fatalf("entry %d: %v/%v vs %v/%v", i, a, okA, b, okB)
		}
	}
}

func TestPageMapSerializeBounds(t *testing.T) {
	m := NewPageMap(10)
	if _, err := m.SerializePage(-1); err == nil {
		t.Fatal("negative page should fail")
	}
	if _, err := m.SerializePage(1); err == nil {
		t.Fatal("page beyond end should fail")
	}
	if err := m.LoadPage(0, make([]byte, 10)); err == nil {
		t.Fatal("short payload should fail")
	}
	if err := m.LoadPage(5, make([]byte, MapPageBytes)); err == nil {
		t.Fatal("page index out of range should fail")
	}
}

// Property: the map behaves exactly like a Go map from lpn to PPA.
func TestPageMapModelProperty(t *testing.T) {
	const n = 256
	f := func(ops []struct {
		Lpn    uint16
		Sector uint16
		Del    bool
	}) bool {
		m := NewPageMap(n)
		model := make(map[int64]ocssd.PPA)
		for _, op := range ops {
			lpn := int64(op.Lpn % n)
			if op.Del {
				m.Unmap(lpn)
				delete(model, lpn)
			} else {
				ppa := ocssd.PPA{Sector: int(op.Sector)}
				m.Update(lpn, ppa)
				model[lpn] = ppa
			}
		}
		if m.MappedCount() != len(model) {
			return false
		}
		for lpn, want := range model {
			got, ok := m.Lookup(lpn)
			if !ok || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestVarMap(t *testing.T) {
	m := NewVarMap()
	if _, ok := m.Lookup(1); ok {
		t.Fatal("fresh varmap should miss")
	}
	e := VarEntry{PPA: ocssd.PPA{Chunk: 2, Sector: 5}, Offset: 100, Length: 777}
	if err := m.Update(1, e); err != nil {
		t.Fatal(err)
	}
	got, ok := m.Lookup(1)
	if !ok || got != e {
		t.Fatalf("lookup = %+v, %v", got, ok)
	}
	if m.Len() != 1 {
		t.Fatal("len wrong")
	}
	m.Delete(1)
	if _, ok := m.Lookup(1); ok {
		t.Fatal("delete failed")
	}
	// Invalid entries rejected.
	if err := m.Update(2, VarEntry{Length: 0}); err == nil {
		t.Fatal("zero length should be rejected")
	}
	if err := m.Update(2, VarEntry{Offset: -1, Length: 5}); err == nil {
		t.Fatal("negative offset should be rejected")
	}
}

func TestValidityTracking(t *testing.T) {
	geo := ocssd.DefaultGeometry()
	v := NewValidity(geo)
	id := ocssd.ChunkID{Group: 1, PU: 2, Chunk: 3}
	if v.ValidCount(id) != 0 {
		t.Fatal("fresh chunk should have 0 valid")
	}
	v.MarkValid(id.PPAOf(0))
	v.MarkValid(id.PPAOf(5))
	v.MarkValid(id.PPAOf(5)) // idempotent
	if v.ValidCount(id) != 2 {
		t.Fatalf("valid = %d, want 2", v.ValidCount(id))
	}
	sectors := v.ValidSectors(nil, id)
	if len(sectors) != 2 || sectors[0].Sector != 0 || sectors[1].Sector != 5 {
		t.Fatalf("sectors = %v", sectors)
	}
	v.MarkInvalid(id.PPAOf(0))
	v.MarkInvalid(id.PPAOf(0)) // idempotent
	if v.ValidCount(id) != 1 {
		t.Fatalf("valid = %d, want 1", v.ValidCount(id))
	}
	if v.InvalidCount(id, 10) != 9 {
		t.Fatalf("invalid = %d, want 9", v.InvalidCount(id, 10))
	}
	// The scratch passed in is reused, not reallocated.
	if again := v.ValidSectors(sectors[:0], id); len(again) != 1 || &again[0] != &sectors[0] || again[0].Sector != 5 {
		t.Fatalf("sectors into scratch = %v", again)
	}
	v.Drop(id)
	if v.ValidCount(id) != 0 || len(v.ValidSectors(nil, id)) != 0 {
		t.Fatal("drop failed")
	}
	// Marking invalid on an untracked chunk is a no-op.
	v.MarkInvalid(id.PPAOf(1))
	if v.ValidCount(id) != 0 {
		t.Fatal("invalid on untracked chunk should be no-op")
	}
}

// Property: valid count always equals the cardinality of the marked set.
func TestValidityCountProperty(t *testing.T) {
	geo := ocssd.DefaultGeometry()
	spc := geo.SectorsPerChunk()
	f := func(ops []struct {
		Sector  uint16
		Invalid bool
	}) bool {
		v := NewValidity(geo)
		id := ocssd.ChunkID{}
		model := make(map[int]bool)
		for _, op := range ops {
			s := int(op.Sector) % spc
			if op.Invalid {
				v.MarkInvalid(id.PPAOf(s))
				delete(model, s)
			} else {
				v.MarkValid(id.PPAOf(s))
				model[s] = true
			}
		}
		live := v.ValidSectors(nil, id)
		for i, p := range live {
			if !model[p.Sector] || p.ChunkOf() != id || (i > 0 && p.Sector <= live[i-1].Sector) {
				return false
			}
		}
		return v.ValidCount(id) == len(model) && len(live) == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReverseMap(t *testing.T) {
	geo := ocssd.DefaultGeometry()
	r := NewReverseMap(geo)
	ppa := ocssd.PPA{Group: 0, PU: 1, Chunk: 2, Sector: 3}
	if _, ok := r.Get(ppa); ok {
		t.Fatal("fresh rmap should miss")
	}
	r.Set(ppa, 42)
	lba, ok := r.Get(ppa)
	if !ok || lba != 42 {
		t.Fatalf("get = %d, %v", lba, ok)
	}
	r.Drop(ppa.ChunkOf())
	if _, ok := r.Get(ppa); ok {
		t.Fatal("drop failed")
	}
}
