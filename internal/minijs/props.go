package minijs

// prop is one named property of an object or one binding of a scope.
type prop struct {
	name string
	v    Value
}

// indexMin is the entry count past which a property table also keeps a
// name→slot index. Up to it a linear scan of the entries is cheaper than
// hashing the name; past it, a script that gives one object or one scope
// thousands of names still pays O(1) per access.
const indexMin = 16

// propTable holds an object's named properties or a scope's bindings: one
// slice of entries, searched linearly, plus a name→slot index once the
// table holds more than indexMin entries. The index, once built, is kept
// up to date by every later put and del, also when deletes shrink the
// table back under indexMin. The zero table is empty and holds no storage:
// the first put allocates, sized by a grow that came before it. Entry
// order is not meaningful: del moves the last entry into the hole, and
// Object.Keys sorts.
type propTable struct {
	ents  []prop
	index map[string]int32
}

// find returns name's slot, or -1.
func (t *propTable) find(name string) int {
	if t.index != nil {
		if i, ok := t.index[name]; ok {
			return int(i)
		}
		return -1
	}
	for i := range t.ents {
		if t.ents[i].name == name {
			return i
		}
	}
	return -1
}

// get reads name.
func (t *propTable) get(name string) (Value, bool) {
	if i := t.find(name); i >= 0 {
		return t.ents[i].v, true
	}
	return Undefined, false
}

// set overwrites name if the table holds it and reports whether it did.
func (t *propTable) set(name string, v Value) bool {
	if i := t.find(name); i >= 0 {
		t.ents[i].v = v
		return true
	}
	return false
}

// put writes name, adding it when the table does not hold it.
func (t *propTable) put(name string, v Value) {
	if !t.set(name, v) {
		t.add(name, v)
	}
}

// add appends name, which the table must not hold.
func (t *propTable) add(name string, v Value) {
	t.ents = append(t.ents, prop{name: name, v: v})
	switch n := len(t.ents); {
	case t.index != nil:
		t.index[name] = int32(n - 1)
	case n > indexMin:
		t.index = make(map[string]int32, 2*n)
		for i := range t.ents {
			t.index[t.ents[i].name] = int32(i)
		}
	}
}

// grow makes room for n more entries, so that the next n adds do not
// reallocate. On an empty table it is the first allocation, exactly n
// entries long.
func (t *propTable) grow(n int) {
	if n <= 0 || cap(t.ents)-len(t.ents) >= n {
		return
	}
	ents := make([]prop, len(t.ents), len(t.ents)+n)
	copy(ents, t.ents)
	t.ents = ents
}

// del removes name if the table holds it.
func (t *propTable) del(name string) {
	i := t.find(name)
	if i < 0 {
		return
	}
	last := len(t.ents) - 1
	if i != last {
		t.ents[i] = t.ents[last]
		if t.index != nil {
			t.index[t.ents[i].name] = int32(i)
		}
	}
	t.ents[last] = prop{}
	t.ents = t.ents[:last]
	if t.index != nil {
		delete(t.index, name)
	}
}
