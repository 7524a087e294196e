//===- dfa/Dataflow.h - Generic bit-vector dataflow framework --*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A generic intra-procedural bit-vector dataflow framework.  Every
/// analysis in the paper (Tables 1-3) and every baseline analysis (LCM,
/// copy propagation, liveness) is an instance: a direction, a meet, a
/// boundary value and one sparse local effect per instruction
///
///   forward:   X_i = gen_i | (N_i & ~kill_i)
///   backward:  N_i = gen_i | (X_i & ~kill_i)
///
/// where gen_i is a few bit indices and kill_i a few bit indices plus
/// per-variable masks cached once per universe build (LocalEffect).
///
/// The solver composes the per-instruction effects into one transfer per
/// basic block and runs a worklist fixpoint over the blocks in
/// (reverse-graph) reverse postorder, on the sliced engine of
/// dfa/MultiPattern.h.  With an all-path meet it computes the *greatest*
/// solution from an all-true initialization; with an any-path meet the
/// *least* solution from all-false — matching the solutions the paper's
/// equation systems call for.  Instruction-level facts are not stored: a
/// BlockWalker replays one block's effects over one running vector.
///
//===----------------------------------------------------------------------===//

#ifndef AM_DFA_DATAFLOW_H
#define AM_DFA_DATAFLOW_H

#include "dfa/MultiPattern.h"
#include "dfa/SolverCache.h"
#include "ir/FlowGraph.h"
#include "support/BitVector.h"

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace am {

class DataflowSolver;

enum class Direction { Forward, Backward };

/// All = intersection over incoming edges (must-style, greatest fixpoint);
/// Any = union (may-style, least fixpoint).
enum class Meet { All, Any };

/// A bit-vector dataflow problem at instruction granularity.
class DataflowProblem {
public:
  virtual ~DataflowProblem() = default;

  virtual Direction direction() const = 0;
  virtual Meet meet() const = 0;

  /// Width of the fact vectors.
  virtual size_t numBits() const = 0;

  /// Value at the entry of the start node (forward) or the exit of the end
  /// node (backward).  Defaults to all-false, which matches every analysis
  /// in the paper.
  virtual void boundary(BitVector &Out) const { Out = BitVector(numBits()); }

  /// Adds the local effect of instruction \p I (block \p B, index
  /// \p InstrIdx) to \p E, which the caller has cleared.  Called
  /// concurrently from transfer-composition workers, each with its own
  /// \p E.
  virtual void effect(BlockId B, size_t InstrIdx, const Instr &I,
                      LocalEffect &E) const = 0;
};

/// Composes the effects of block \p B's instructions, in \p P's direction,
/// into one transfer f(v) = Gen | (v & ~Kill).  \p E is scratch.
void composeBlock(const DataflowProblem &P, const FlowGraph &G, BlockId B,
                  LocalEffect &E, BitVector &Gen, BitVector &Kill);

/// Solution of a dataflow problem: a fact at the entry and exit of every
/// basic block.  Instruction-boundary facts are replayed by a BlockWalker.
///
/// A result reads the solver's own storage (the engine's packed planes)
/// until the solver solves again or dies; only then, and only if the
/// result is still held, are the facts copied out.  The per-block vectors
/// entry()/exit() return are materialized on first use; hot paths read
/// words through entryRow() / exitRow() and never pay for the copy.
class DataflowResult {
public:
  /// Fact at the block's entry (before its first instruction).
  const BitVector &entry(BlockId B) const {
    return (Sol->Live ? materialized() : *Sol).Entry[B];
  }

  /// Fact at the block's exit (after its last instruction).
  const BitVector &exit(BlockId B) const {
    return (Sol->Live ? materialized() : *Sol).Exit[B];
  }

  /// The same facts as word views, without materializing.
  WordRow entryRow(BlockId B) const;
  WordRow exitRow(BlockId B) const;

  /// Facts at every instruction boundary of one block.  Before[i] is the
  /// fact immediately before instruction i, After[i] immediately after.
  struct InstrFacts {
    std::vector<BitVector> Before;
    std::vector<BitVector> After;
  };

  /// Materializes the instruction-boundary facts of \p B (a BlockWalker
  /// replay).  For tests, listings and one-off queries; hot paths walk.
  InstrFacts instrFacts(BlockId B) const;

  /// Number of group-block transfer evaluations, exposed for the
  /// complexity experiments; mirrored into the stats registry as
  /// `dfa.blocks_processed`.
  uint64_t BlocksProcessed = 0;

  /// Process-wide serial of the solve() call that produced this result
  /// (cached returns get a serial too).  Remarks cite it so a reader can
  /// match a decision's facts to the trace/stats of the solve that
  /// justified it.  Never 0 for a result produced by solve().
  uint64_t SolveSerial = 0;

private:
  friend class DataflowSolver;
  friend class BlockWalker;

  /// The per-block facts.  While Live is set they are still the solver's
  /// and Entry/Exit are empty.
  struct Solution {
    std::vector<BitVector> Entry;
    std::vector<BitVector> Exit;
    const DataflowSolver *Live = nullptr;
  };

  const Solution &materialized() const;

  const FlowGraph *G = nullptr;
  const DataflowProblem *Problem = nullptr;
  std::shared_ptr<Solution> Sol;
};

/// Replays one block of a solved problem instruction by instruction over
/// a single running fact vector.  Its scratch is reused across blocks, so
/// walking a whole graph does not allocate per block.
class BlockWalker {
public:
  explicit BlockWalker(const DataflowResult &R) : R(&R) {}

  /// Calls \p Visit(Idx, In, Effect) for every instruction of \p B in the
  /// problem's direction (first to last for forward problems, last to
  /// first for backward ones).  \p In is the fact on the instruction's
  /// input side — immediately before it for forward problems, immediately
  /// after it for backward ones — and \p Effect its local effect.
  template <typename Fn> void walk(BlockId B, Fn &&Visit) {
    const auto &Instrs = R->G->block(B).Instrs;
    size_t N = Instrs.size();
    bool Forward = R->Problem->direction() == Direction::Forward;
    (Forward ? R->entryRow(B) : R->exitRow(B)).copyTo(Cur);
    for (size_t Step = 0; Step < N; ++Step) {
      size_t Idx = Forward ? Step : N - 1 - Step;
      E.clear();
      R->Problem->effect(B, Idx, Instrs[Idx], E);
      Visit(Idx, std::as_const(Cur), std::as_const(E));
      E.apply(Cur);
    }
  }

private:
  const DataflowResult *R;
  BitVector Cur;
  LocalEffect E;
};

/// A reusable solver.  One solver instance owns its engine — all fixpoint
/// scratch (the worklist rings, the packed composed transfers) and the
/// previous converged solution — so that repeated solves of the *same
/// analysis over the same live graph* get cheaper as the graph
/// stabilizes:
///
///  * block transfers are recomposed only for blocks the graph stamped
///    dirty (FlowGraph::touchBlock) since the previous solve;
///  * a solve is seeded with only the dirty blocks' dependence closure —
///    values outside it are provably still the fixpoint — and if nothing
///    changed at all, the cached solution is returned with zero blocks
///    processed;
///  * scratch vectors are reused, so the steady-state inner loop does not
///    allocate;
///  * the result reads the solver's storage instead of a copy (see
///    DataflowResult), so a consumer that queries words pays no export.
///
/// The result is bit-identical to a from-scratch solve (the incremental
/// restart is exact, not approximate): outside the dirty closure the old
/// solution *is* the new fixpoint, and inside it iteration restarts from
/// the optimistic initialization against converged boundary values.
///
/// Correctness contract: between two solves of one solver instance, every
/// mutation of the graph must go through tick-stamping paths (touchBlock,
/// addBlock, addEdge, touchEdges), and \p ProblemGen must change whenever
/// the problem's effects could answer differently for an *unchanged*
/// instruction.  Structural changes (blocks/edges) fall back to a full
/// solve automatically.  A default-constructed solver has no cache, so
/// its first solve is always a full solve.
class DataflowSolver {
public:
  DataflowSolver();
  /// Copies the facts out into a result that is still held.
  ~DataflowSolver();
  // Results point back at their solver.
  DataflowSolver(const DataflowSolver &) = delete;
  DataflowSolver &operator=(const DataflowSolver &) = delete;

  /// Solves \p P over \p G (which must be valid, see
  /// FlowGraph::validate(), and must be the same live graph across solves
  /// for the cache to apply).
  DataflowResult solve(const FlowGraph &G, const DataflowProblem &P,
                       uint64_t ProblemGen = 0);

  /// Hands the solver to a new problem: drops the cached transfers and
  /// solution, so the next solve is a full one whatever its problem
  /// generation, and keeps the engine's arenas, so a problem whose planes
  /// fit them allocates none.  A result still held is copied out first.
  void handOver();

  /// The composed transfer of block \p B from the last solve, as word
  /// views (Gen / Kill sides).
  void transferRows(BlockId B, WordRow &Gen, WordRow &Kill) const;

private:
  friend class DataflowResult;

  bool solutionValid(const FlowGraph &G, const DataflowProblem &P,
                     uint64_t ProblemGen) const;
  void refreshOrder(const FlowGraph &G, bool Forward);
  DataflowResult snapshot(const FlowGraph &G, const DataflowProblem &P);
  /// Word view of the last solve's entry (\p Entry) or exit fact of \p B.
  WordRow factRow(BlockId B, bool Entry) const;
  /// Copies the last solve's facts into \p S.
  void materialize(DataflowResult::Solution &S) const;
  /// Materializes the live result if a caller still holds it — before
  /// the solver's storage changes.
  void detach();

  /// The sliced engine: packed transfers and the packed previous
  /// solution; see dfa/MultiPattern.h.
  TransposedEngine Engine;

  // Iteration order, cached against the graph's structural tick.
  std::vector<BlockId> Order;
  std::vector<size_t> OrderIndex;
  const FlowGraph *OrderG = nullptr;
  Tick OrderStructTick = 0;
  bool OrderForward = true;

  // The identity the engine's converged solution is valid for.
  bool HaveSolution = false;
  const FlowGraph *SolG = nullptr;
  size_t SolBlocks = 0;
  Tick SolTick = 0;
  Tick SolStructTick = 0;
  uint64_t SolGen = 0;
  size_t SolBits = 0;
  bool SolForward = true;
  bool SolMeetAll = true;

  // Per-solve scratch, reused.
  BitVector Boundary, AffectedSet;
  /// The last result, while it reads this solver's storage.
  std::weak_ptr<DataflowResult::Solution> LiveSol;
  std::vector<BlockId> DirtyScratch;
};

/// Solves \p P over \p G with a throwaway solver.  The graph must be
/// valid (see FlowGraph::validate()).
DataflowResult solve(const FlowGraph &G, const DataflowProblem &P);

/// Point-in-time description of one solve() call, delivered to the solve
/// observer (below).  Mirrors what the trace span records, but as plain
/// data a higher layer can keep — the flight recorder uses it for its
/// convergence sparklines without dfa/ depending on report/.
struct SolveInfo {
  enum class Path { Full, Incremental, Cached };
  uint64_t Serial = 0;       ///< DataflowResult::SolveSerial of this solve.
  size_t Bits = 0;           ///< Fact vector width.
  size_t Blocks = 0;         ///< Blocks in the graph.
  uint64_t BlocksProcessed = 0; ///< Group-block transfer evaluations.
  size_t DirtyClosure = 0;   ///< Seeded blocks on the incremental path.
  Path P = Path::Full;
  bool Forward = true;
  bool MeetAll = true;
};

/// Installs a per-thread observer invoked at the end of every solve()
/// (all three paths: full, incremental, cached).  Pass nullptr to remove.
/// The observer must not solve dataflow problems itself and must not
/// mutate any graph; it is a function pointer rather than std::function
/// so the disabled check stays one load + branch.  Not thread-safe:
/// install/uninstall only while no solves are running.
void setSolveObserver(void (*Fn)(const SolveInfo &, void *Ctx), void *Ctx);

} // namespace am

#endif // AM_DFA_DATAFLOW_H
