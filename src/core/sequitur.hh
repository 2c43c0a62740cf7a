/**
 * @file
 * SEQUITUR hierarchical grammar inference (Nevill-Manning & Witten,
 * JAIR 1997), the information-theoretic engine the paper uses to find
 * temporal streams (Section 3).
 *
 * SEQUITUR incrementally builds a context-free grammar from a symbol
 * sequence while maintaining two invariants:
 *
 *  1. digram uniqueness — no pair of adjacent symbols appears more
 *     than once in the grammar;
 *  2. rule utility — every rule (except the root) is referenced more
 *     than once.
 *
 * Every non-root production rule therefore corresponds to a subsequence
 * that occurs at least twice in the input: a temporal stream.
 *
 * The implementation follows the canonical algorithm — doubly-linked
 * symbol lists with per-rule guard nodes, a digram index, rule
 * substitution on duplicate digrams, and inline expansion of
 * under-used rules — on dense 32-bit storage. A symbol is 12 bytes:
 * two 32-bit arena links plus one tagged 32-bit word (a terminal below
 * 2^31, kRuleBit | rule id for a non-terminal, kRuleBit | kGuardBit |
 * rule id for a rule's guard node). Symbols live in one pooled arena
 * with LIFO slot recycling; rules are plain values in a by-id vector.
 * The digram index packs two symbol words into one 64-bit key and is
 * an open-addressing table of 16-byte slots: Fibonacci hashing,
 * linear probing, backward-shift deletion (no tombstones), at most
 * half full. grammar() checks every list link as it copies the bodies
 * out.
 * The digests in tests/data/sequitur_grammar_digests.txt pin the
 * grammar — every rule id, reference count and body — for a fixed set
 * of inputs.
 */

#ifndef TSTREAM_CORE_SEQUITUR_HH
#define TSTREAM_CORE_SEQUITUR_HH

#include <cstdint>
#include <vector>

#include "util/logging.hh"

namespace tstream
{

/**
 * A SEQUITUR grammar under incremental construction.
 *
 * Terminals are values below 2^31 (callers intern wider domains, e.g.
 * block addresses, into dense ids); append() panics on a larger one.
 */
class Sequitur
{
  public:
    /** Terminals must be below this. */
    static constexpr std::uint64_t kTerminalLimit = std::uint64_t{1} << 31;

    Sequitur();

    Sequitur(const Sequitur &) = delete;
    Sequitur &operator=(const Sequitur &) = delete;

    /**
     * Size the symbol arena and the digram index for an input of
     * @p terminals symbols, so appending that many does not regrow
     * them (the grammar is never larger than its input).
     */
    void reserve(std::size_t terminals);

    /** Append one terminal (below kTerminalLimit) to the input. */
    void append(std::uint64_t terminal);

    /** Append a whole sequence. */
    template <typename T>
    void
    appendAll(const std::vector<T> &seq)
    {
        for (const T v : seq)
            append(v);
    }

    /** Number of terminals appended so far. */
    std::uint64_t inputLength() const { return inputLen_; }

    /** Number of live rules, including the root. */
    std::size_t ruleCount() const { return liveRules_; }

    /** Slots of the digram index (its size, not its load). */
    std::size_t digramSlots() const { return index_.slots(); }

    /** The most digrams the index has held at once. */
    std::size_t peakDigrams() const { return index_.peak(); }

    /** Symbols the arena holds, live or free: its high-water mark. */
    std::size_t arenaSymbols() const { return symbols_.size(); }

    /** Root rule id (always 0). */
    static constexpr std::uint32_t kRootRule = 0;

    /** Number of symbol references to rule @p id (root: 0). */
    std::uint32_t
    ruleRefs(std::uint32_t id) const
    {
        return rules_.at(id).refs;
    }

    /**
     * A flat, CSR-style copy of the live rule bodies: rule r's body is
     * the symbols in [begin(r), end(r)) of one shared array, each a
     * terminal or kRuleBit | rule id. Dead rule ids have empty bodies.
     */
    class Grammar
    {
      public:
        /** Symbol bit marking a non-terminal. */
        static constexpr std::uint32_t kRuleBit = 1u << 31;

        static bool isRule(std::uint32_t sym) { return sym >= kRuleBit; }

        /** Terminal value or rule id of @p sym. */
        static std::uint32_t
        valueOf(std::uint32_t sym)
        {
            return sym & ~kRuleBit;
        }

        /** Rule ids (live or dead) are below this. */
        std::uint32_t
        numRules() const
        {
            return static_cast<std::uint32_t>(offsets_.size() - 1);
        }

        /** The root, and every rule with a body, is live. */
        bool
        live(std::uint32_t id) const
        {
            return id == kRootRule || offsets_[id] != offsets_[id + 1];
        }

        const std::uint32_t *
        begin(std::uint32_t id) const
        {
            return syms_.data() + offsets_[id];
        }

        const std::uint32_t *
        end(std::uint32_t id) const
        {
            return syms_.data() + offsets_[id + 1];
        }

        /**
         * Expanded length of each rule, indexed by rule id (dead rule
         * ids hold 0). O(total grammar size).
         */
        std::vector<std::uint64_t> ruleLengths() const;

      private:
        friend class Sequitur;
        std::vector<std::uint32_t> offsets_; ///< numRules() + 1 entries
        std::vector<std::uint32_t> syms_;
    };

    /**
     * Copy out the current rule bodies; panics if a body's symbol
     * links do not form a closed list through the rule's own guard.
     */
    Grammar grammar() const;

  private:
    /** Arena index of a symbol. */
    using SymIdx = std::uint32_t;

    static constexpr SymIdx kNoSym = 0xFFFFFFFFu;
    static constexpr std::uint32_t kRuleBit = Grammar::kRuleBit;
    /** With kRuleBit, marks a rule's guard node. */
    static constexpr std::uint32_t kGuardBit = 1u << 30;
    /** Symbol words at or above this are guards. */
    static constexpr std::uint32_t kGuardTag = kRuleBit | kGuardBit;
    static constexpr std::uint32_t kIdMask = kGuardBit - 1;

    /** One arena slot: list links plus the tagged symbol word. */
    struct Symbol
    {
        SymIdx prev = kNoSym;
        SymIdx next = kNoSym;
        std::uint32_t val = 0;
    };
    static_assert(sizeof(Symbol) == 12, "a symbol is three 32-bit words");

    struct Rule
    {
        std::uint32_t refs = 0;
        SymIdx guard = kNoSym; ///< kNoSym once the rule is inlined
    };

    /**
     * Digram index: packed key (first word << 32 | second word) ->
     * arena index of the digram's registered first symbol. Linear
     * probing over 16-byte slots, Fibonacci hashing, backward-shift
     * deletion; doubled before it would pass half full. The all-ones
     * key (two guards) never names a digram, so it marks empty slots.
     */
    class DigramTable
    {
      public:
        DigramTable() { resize(1024); }

        static std::uint64_t
        key(std::uint32_t a, std::uint32_t b)
        {
            return std::uint64_t{a} << 32 | b;
        }

        /** Make room for @p entries without regrowing. */
        void reserve(std::size_t entries);

        /**
         * @return the symbol mapped to @p k; if there is none, map
         * @p k to @p sym and return kNoSym.
         */
        SymIdx findOrPut(std::uint64_t k, SymIdx sym);

        /** Insert or overwrite the mapping for @p k. */
        void put(std::uint64_t k, SymIdx sym);

        /** Remove @p k only if it currently maps to @p ifSym. */
        void erase(std::uint64_t k, SymIdx ifSym);

        std::size_t slots() const { return slots_.size(); }
        std::size_t peak() const { return peak_; }

      private:
        static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

        struct Slot
        {
            std::uint64_t key = kEmptyKey;
            SymIdx sym = kNoSym;
        };

        std::size_t
        home(std::uint64_t k) const
        {
            return static_cast<std::size_t>(
                (k * 0x9e3779b97f4a7c15ull) >> shift_);
        }

        /** Rehash into @p slots (a power of two) slots. */
        void resize(std::size_t slots);

        std::vector<Slot> slots_;
        std::size_t mask_ = 0;
        unsigned shift_ = 0;
        std::size_t size_ = 0;
        std::size_t peak_ = 0; ///< most entries held at once
    };

    bool isGuard(SymIdx s) const { return symbols_[s].val >= kGuardTag; }

    bool
    isNonTerminal(SymIdx s) const
    {
        const std::uint32_t v = symbols_[s].val;
        return v >= kRuleBit && v < kGuardTag;
    }

    /** Rule id of a non-terminal or guard symbol. */
    std::uint32_t ruleIdOf(SymIdx s) const { return symbols_[s].val & kIdMask; }

    /** Digram key of the pair starting at @p s. */
    std::uint64_t
    digramAt(SymIdx s) const
    {
        return DigramTable::key(symbols_[s].val,
                                symbols_[symbols_[s].next].val);
    }

    SymIdx newSymbol(std::uint32_t val);
    void freeSymbol(SymIdx s);
    SymIdx newNonTerminal(std::uint32_t rule);
    std::uint32_t newRule();

    void link(SymIdx a, SymIdx b);

    /**
     * Link @p left -> @p right, maintaining the digram index: the
     * broken digram at @p left is dropped, and overlapped occurrences
     * in same-value runs are re-registered (the canonical algorithm's
     * "triples" handling).
     */
    void join(SymIdx left, SymIdx right);

    /** Remove the index entry for the digram starting at @p a, if it
     *  points at @p a. */
    void removeDigram(SymIdx a);

    /** Unlink and free @p s, maintaining digram index and rule refs. */
    void deleteSymbol(SymIdx s);

    /**
     * Enforce digram uniqueness for the digram starting at @p a.
     * @return true if the grammar was restructured.
     */
    bool check(SymIdx a);

    /** Handle a duplicate digram: @p a matches earlier occurrence
     *  @p m. */
    void processMatch(SymIdx a, SymIdx m);

    /** Replace the digram at @p a with a reference to rule @p r. */
    void substitute(SymIdx a, std::uint32_t r);

    /** Inline the sole use @p nt of its rule (rule utility). */
    void expand(SymIdx nt);

    std::vector<Symbol> symbols_; ///< pooled arena, index-linked
    std::vector<SymIdx> freeList_;
    std::vector<Rule> rules_; ///< by id; inlined rules stay, guard-less
    DigramTable index_;
    std::uint64_t inputLen_ = 0;
    std::size_t liveRules_ = 0;
};

} // namespace tstream

#endif // TSTREAM_CORE_SEQUITUR_HH
