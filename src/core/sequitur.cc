#include "core/sequitur.hh"

namespace tstream
{

// ---------------------------------------------------------------------------
// DigramTable
// ---------------------------------------------------------------------------

void
Sequitur::DigramTable::resize(std::size_t slots)
{
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(slots, Slot{});
    mask_ = slots - 1;
    shift_ = 64;
    for (std::size_t n = slots; n > 1; n >>= 1)
        --shift_;
    for (const Slot &s : old) {
        if (s.key == kEmptyKey)
            continue;
        std::size_t i = home(s.key);
        while (slots_[i].key != kEmptyKey)
            i = (i + 1) & mask_;
        slots_[i] = s;
    }
}

void
Sequitur::DigramTable::reserve(std::size_t entries)
{
    std::size_t n = slots_.size();
    while (entries * 2 > n)
        n *= 2;
    if (n != slots_.size())
        resize(n);
}

Sequitur::SymIdx
Sequitur::DigramTable::findOrPut(std::uint64_t k, SymIdx sym)
{
    if ((size_ + 1) * 2 > slots_.size())
        resize(slots_.size() * 2);
    std::size_t i = home(k);
    for (; slots_[i].key != kEmptyKey; i = (i + 1) & mask_)
        if (slots_[i].key == k)
            return slots_[i].sym;
    slots_[i] = Slot{k, sym};
    if (++size_ > peak_)
        peak_ = size_;
    return kNoSym;
}

void
Sequitur::DigramTable::put(std::uint64_t k, SymIdx sym)
{
    if ((size_ + 1) * 2 > slots_.size())
        resize(slots_.size() * 2);
    std::size_t i = home(k);
    while (slots_[i].key != k && slots_[i].key != kEmptyKey)
        i = (i + 1) & mask_;
    if (slots_[i].key == kEmptyKey) {
        slots_[i].key = k;
        if (++size_ > peak_)
            peak_ = size_;
    }
    slots_[i].sym = sym;
}

void
Sequitur::DigramTable::erase(std::uint64_t k, SymIdx ifSym)
{
    std::size_t i = home(k);
    while (slots_[i].key != k) {
        if (slots_[i].key == kEmptyKey)
            return;
        i = (i + 1) & mask_;
    }
    if (slots_[i].sym != ifSym)
        return;
    // Backward-shift deletion: pull each later entry of the probe run
    // into the hole unless the hole lies before its home slot.
    for (std::size_t j = (i + 1) & mask_; slots_[j].key != kEmptyKey;
         j = (j + 1) & mask_) {
        if (((j - home(slots_[j].key)) & mask_) >= ((j - i) & mask_)) {
            slots_[i] = slots_[j];
            i = j;
        }
    }
    slots_[i] = Slot{};
    --size_;
}

// ---------------------------------------------------------------------------
// Construction primitives
// ---------------------------------------------------------------------------

Sequitur::Sequitur()
{
    // Rule 0 is the root; it is never referenced by a symbol.
    newRule();
}

void
Sequitur::reserve(std::size_t terminals)
{
    // Each terminal adds one symbol; rules add a guard and replace two
    // occurrences of a digram by one symbol each, so the arena stays
    // close to the input length.
    symbols_.reserve(terminals + terminals / 4 + 16);
    index_.reserve(terminals);
}

Sequitur::SymIdx
Sequitur::newSymbol(std::uint32_t val)
{
    if (!freeList_.empty()) {
        const SymIdx s = freeList_.back();
        freeList_.pop_back();
        symbols_[s] = Symbol{kNoSym, kNoSym, val};
        return s;
    }
    panicIf(symbols_.size() >= kNoSym - 1,
            "Sequitur: symbol arena exhausted");
    symbols_.push_back(Symbol{kNoSym, kNoSym, val});
    return static_cast<SymIdx>(symbols_.size() - 1);
}

void
Sequitur::freeSymbol(SymIdx s)
{
    freeList_.push_back(s);
}

Sequitur::SymIdx
Sequitur::newNonTerminal(std::uint32_t rule)
{
    rules_[rule].refs++;
    return newSymbol(kRuleBit | rule);
}

std::uint32_t
Sequitur::newRule()
{
    const auto id = static_cast<std::uint32_t>(rules_.size());
    panicIf(id > kIdMask, "Sequitur: rule ids exhausted");
    const SymIdx g = newSymbol(kGuardTag | id);
    rules_.push_back(Rule{0, g});
    link(g, g); // empty circular body
    ++liveRules_;
    return id;
}

void
Sequitur::link(SymIdx a, SymIdx b)
{
    symbols_[a].next = b;
    symbols_[b].prev = a;
}

void
Sequitur::removeDigram(SymIdx a)
{
    if (isGuard(a) || isGuard(symbols_[a].next))
        return;
    index_.erase(digramAt(a), a);
}

void
Sequitur::join(SymIdx left, SymIdx right)
{
    if (symbols_[left].next != kNoSym) {
        // Re-linking an existing neighbourhood: drop the digram that is
        // being broken, and handle the canonical algorithm's "triples"
        // subtlety — when same-value runs lose their registered
        // occurrence, re-register the surviving overlapped occurrence.
        // Guards never match: each rule has one.
        removeDigram(left);

        const SymIdx rp = symbols_[right].prev;
        const SymIdx rn = symbols_[right].next;
        const std::uint32_t rv = symbols_[right].val;
        if (rp != kNoSym && rn != kNoSym && rv < kGuardTag &&
            rv == symbols_[rp].val && rv == symbols_[rn].val)
            index_.put(DigramTable::key(rv, rv), right);
        const SymIdx lp = symbols_[left].prev;
        const SymIdx ln = symbols_[left].next;
        const std::uint32_t lv = symbols_[left].val;
        if (lp != kNoSym && ln != kNoSym && lv < kGuardTag &&
            lv == symbols_[ln].val && lv == symbols_[lp].val)
            index_.put(DigramTable::key(lv, lv), lp);
    }
    link(left, right);
}

void
Sequitur::deleteSymbol(SymIdx s)
{
    join(symbols_[s].prev, symbols_[s].next);
    if (!isGuard(s)) {
        removeDigram(s); // (s, old next); s's next field is intact
        if (isNonTerminal(s))
            rules_[ruleIdOf(s)].refs--;
    }
    freeSymbol(s);
}

// ---------------------------------------------------------------------------
// The algorithm
// ---------------------------------------------------------------------------

void
Sequitur::append(std::uint64_t terminal)
{
    panicIf(terminal >= kTerminalLimit, "Sequitur: terminal value too large");
    const SymIdx s = newSymbol(static_cast<std::uint32_t>(terminal));
    const SymIdx guard = rules_[kRootRule].guard;
    const SymIdx last = symbols_[guard].prev;
    join(s, guard);
    join(last, s);
    ++inputLen_;
    check(last);
}

bool
Sequitur::check(SymIdx a)
{
    const SymIdx an = symbols_[a].next;
    if (isGuard(a) || isGuard(an))
        return false;

    const SymIdx m = index_.findOrPut(digramAt(a), a);
    if (m == kNoSym || m == a)
        return false;
    // Overlapping occurrences (e.g. "aaa"): leave the grammar alone.
    if (symbols_[m].next == a || an == m)
        return false;

    processMatch(a, m);
    return true;
}

void
Sequitur::processMatch(SymIdx a, SymIdx m)
{
    std::uint32_t r;
    const SymIdx mp = symbols_[m].prev;
    if (isGuard(mp) && isGuard(symbols_[symbols_[m].next].next)) {
        // The earlier occurrence is exactly an existing rule's body:
        // reuse that rule.
        r = ruleIdOf(mp);
        substitute(a, r);
    } else {
        // Create a new rule from the digram's values.
        r = newRule();
        const std::uint32_t va = symbols_[a].val;
        const std::uint32_t vb = symbols_[symbols_[a].next].val;
        const SymIdx x = newSymbol(va);
        const SymIdx y = newSymbol(vb);
        if (va >= kRuleBit)
            rules_[va & kIdMask].refs++;
        if (vb >= kRuleBit)
            rules_[vb & kIdMask].refs++;
        const SymIdx g = rules_[r].guard;
        link(g, x);
        link(x, y);
        link(y, g);
        substitute(m, r);
        substitute(a, r);
        // Register the rule body digram *after* the substitutions
        // (canonical order): the joins inside the substitutions may
        // transiently re-register run-overlap occurrences of this key,
        // and the body must win.
        index_.put(DigramTable::key(va, vb), x);
    }

    // Rule utility: if a symbol of the (new or reused) rule's body is a
    // rule now referenced only once, inline it. Check the first
    // position, then the last if the first was fine.
    const SymIdx g = rules_[r].guard;
    const SymIdx f = symbols_[g].next;
    if (isNonTerminal(f) && rules_[ruleIdOf(f)].refs == 1) {
        expand(f);
    } else {
        const SymIdx l = symbols_[g].prev;
        if (l != f && isNonTerminal(l) && rules_[ruleIdOf(l)].refs == 1)
            expand(l);
    }
}

void
Sequitur::substitute(SymIdx a, std::uint32_t r)
{
    const SymIdx prev = symbols_[a].prev;
    deleteSymbol(a);
    deleteSymbol(symbols_[prev].next);
    const SymIdx nt = newNonTerminal(r);
    join(nt, symbols_[prev].next);
    join(prev, nt);
    // Enforce uniqueness on the new adjacencies. If the left check
    // restructures the grammar, it re-establishes the invariant for
    // the affected neighbourhood, so the right check is skipped
    // (canonical behaviour).
    if (!check(prev))
        check(nt);
}

void
Sequitur::expand(SymIdx nt)
{
    const std::uint32_t r = ruleIdOf(nt);
    panicIf(rules_[r].refs != 1, "Sequitur::expand of rule with refs != 1");

    const SymIdx left = symbols_[nt].prev;
    const SymIdx right = symbols_[nt].next;
    const SymIdx g = rules_[r].guard;
    const SymIdx first = symbols_[g].next;
    const SymIdx last = symbols_[g].prev;
    panicIf(isGuard(first), "Sequitur::expand of empty rule");

    // Remove digrams that involve the non-terminal being inlined.
    removeDigram(left); // (left, nt)
    removeDigram(nt);   // (nt, right)

    // Splice the body into the host rule.
    join(left, first);
    join(last, right);

    // Retire the rule and the non-terminal symbol.
    freeSymbol(g);
    rules_[r] = Rule{};
    --liveRules_;
    freeSymbol(nt);

    // Exactly one of the two boundary digrams is real: expand() is
    // called for a body symbol of a freshly created rule, whose other
    // side is the guard. Enforce uniqueness on the real one last, so
    // any cascading restructuring cannot invalidate indexes we still
    // use.
    if (isGuard(left))
        check(last);
    else
        check(left);
}

// ---------------------------------------------------------------------------
// Inspection
// ---------------------------------------------------------------------------

Sequitur::Grammar
Sequitur::grammar() const
{
    Grammar out;
    out.offsets_.reserve(rules_.size() + 1);
    out.syms_.reserve(symbols_.size() - freeList_.size());
    out.offsets_.push_back(0);
    for (const Rule &r : rules_) {
        if (r.guard != kNoSym) {
            // Each body is a circular list through its own guard; a
            // link that does not point back, or a walk that meets
            // another rule's guard, is a construction bug.
            for (SymIdx s = r.guard;;) {
                const SymIdx n = symbols_[s].next;
                panicIf(symbols_[n].prev != s ||
                            (n != r.guard && isGuard(n)),
                        "Sequitur: broken symbol list");
                if (n == r.guard)
                    break;
                out.syms_.push_back(symbols_[n].val);
                s = n;
            }
        }
        out.offsets_.push_back(static_cast<std::uint32_t>(out.syms_.size()));
    }
    return out;
}

std::vector<std::uint64_t>
Sequitur::Grammar::ruleLengths() const
{
    const std::uint32_t n = numRules();
    std::vector<std::uint64_t> len(n, 0);
    // Dependency-ordered evaluation via iterative post-order DFS.
    std::vector<std::uint8_t> state(n, 0); // 0 new 1 open 2 done
    std::vector<std::uint32_t> stack;
    for (std::uint32_t root = 0; root < n; ++root) {
        if (!live(root) || state[root] == 2)
            continue;
        stack.push_back(root);
        while (!stack.empty()) {
            const std::uint32_t id = stack.back();
            if (state[id] == 0) {
                state[id] = 1;
                for (const std::uint32_t *p = begin(id); p != end(id); ++p)
                    if (isRule(*p) && state[valueOf(*p)] == 0)
                        stack.push_back(valueOf(*p));
            } else {
                stack.pop_back();
                if (state[id] == 1) {
                    state[id] = 2;
                    std::uint64_t total = 0;
                    for (const std::uint32_t *p = begin(id); p != end(id);
                         ++p)
                        total += isRule(*p) ? len[valueOf(*p)] : 1;
                    len[id] = total;
                }
            }
        }
    }
    return len;
}

} // namespace tstream
