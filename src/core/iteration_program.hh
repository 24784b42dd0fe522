/**
 * @file
 * IterationProgram — the compiled op-stream IR of one training
 * iteration.
 *
 * The Executor used to run a whole forward+backward pass inside one
 * imperative, blocking loop. That made iteration execution an
 * all-or-nothing unit: an external scheduler could interleave tenants
 * only at iteration granularity, and the compute engine idled through
 * every tenant's DMA stalls. This IR decomposes the iteration into an
 * explicit op stream compiled once per distinct (Network, MemoryPlan,
 * ExecutorConfig):
 *
 *   BeginIteration                          reset state, input batch
 *   per layer, forward order:
 *     Alloc / Kernel / [Offload] / Sync / Release
 *   Barrier                                 drain deferred releases
 *   per layer, reverse order:
 *     [OnDemandFetch] / [Alloc] / [Prefetch] / Kernel / Sync / Release
 *   EndIteration                            drain, verify steady state
 *
 * Bracketed ops are specialized away at compile time when the plan
 * makes them statically dead (a static-allocation plan performs no
 * memory traffic; a layer whose inputs are never offloaded needs no
 * Offload op). Everything data-dependent — opportunistic prefetch
 * hits, host-exhaustion fallbacks, OOM recovery — stays a runtime
 * decision inside the op bodies, so stepping the program reproduces
 * the monolithic loop exactly.
 *
 * Every op carries its own operands, resolved from the graph and the
 * plan once, here — the single definition of vDNN's per-buffer rules:
 *
 *   forward Alloc/Kernel/Release  the layer's input feature maps, one
 *                                 entry per input edge (each Release
 *                                 entry drops one forward refcount)
 *   Offload                       inputs the plan offloads whose last
 *                                 forward reader is this layer (Fig. 3)
 *   OnDemandFetch, bwd Kernel     the X and/or Y buffers backward reads
 *   backward Alloc                the dX gradient buffers
 *   backward Release              buffers whose last backward user is
 *                                 this layer (Fig. 8)
 *   every layer op                yBuffer (Y, or dY backward), allocY,
 *                                 releaseDY, conv workspace bytes
 *
 * The Executor's op bodies execute those operands concretely and the
 * ProgramVerifier (check/program_verifier.hh) interprets the same
 * operands abstractly, so the two cannot disagree on what an op
 * touches. Because operands live inside the op, a program edited op by
 * op (tests erase, insert and swap ops) keeps them attached.
 *
 * The program is executed by the Executor (core/executor.hh), whose
 * cursor advances one op at a time and can be suspended at every Sync
 * boundary — the substrate the serve layer's PackedOverlap policy uses
 * to run tenant B's compute under tenant A's DMAs, and that the
 * session lifecycle state machine builds on: mid-run re-planning
 * (Session::replan / resume-after-evict) swaps the new plan's program
 * in at an iteration boundary.
 */

#ifndef VDNN_CORE_ITERATION_PROGRAM_HH
#define VDNN_CORE_ITERATION_PROGRAM_HH

#include "net/network.hh"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace vdnn::core
{

struct MemoryPlan;
struct ExecutorConfig;

/** What one program step does. */
enum class OpKind : std::uint8_t
{
    BeginIteration, ///< reset per-iteration state, materialize input
    Alloc,          ///< mandatory allocations (Y/workspace/gradients)
    Kernel,         ///< launch the layer's kernels on stream_compute
    Offload,        ///< issue D2H DMAs for the layer's offloaded inputs
    OnDemandFetch,  ///< ensure residency, fetching serialized if needed
    Prefetch,       ///< Fig. 10 search + overlapped H2D issue
    Sync,           ///< layer boundary: join compute and memory streams
    Release,        ///< workspace / dead-buffer releases, timing record
    Barrier,        ///< forward->backward: drain deferred releases
    EndIteration,   ///< final drain, steady-state invariant check
};

const char *opKindName(OpKind k);

/** One step of the compiled iteration, with its resolved operands. */
struct IterOp
{
    OpKind kind = OpKind::BeginIteration;
    /** Owning layer; kInputLayer for the structural ops. */
    net::LayerId layer = net::kInputLayer;
    /** Backward-phase op (structural ops: phase they belong to). */
    bool backward = false;
    /** The buffers this op touches (per kind: see the file comment). */
    std::vector<net::BufferId> buffers;
    /** The layer's output buffer Y; -1 on structural ops. */
    net::BufferId yBuffer = -1;
    /** Forward: Y is materialized by Alloc (the layer is not in place). */
    bool allocY = false;
    /** Backward Release frees dY (this layer produced yBuffer). */
    bool releaseDY = false;
    /** Convolution workspace of Alloc/Kernel (0 under a static plan). */
    Bytes wsBytes = 0;
};

/**
 * The compiled op stream. Immutable once compiled; one program drives
 * every iteration of every Executor that runs the same (network, plan,
 * config): a core::CompiledPlan (core/program_cache.hh) holds it, and
 * executors share it through a ProgramCache.
 */
struct IterationProgram
{
    std::vector<IterOp> ops;

    static IterationProgram compile(const net::Network &net,
                                    const MemoryPlan &plan,
                                    const ExecutorConfig &cfg);

    std::size_t size() const { return ops.size(); }

    /** Human-readable op-stream listing (one op per line). */
    std::string dump(const net::Network &net) const;
};

} // namespace vdnn::core

#endif // VDNN_CORE_ITERATION_PROGRAM_HH
