//===- backends/Passes.cpp - Marshal-plan pass pipeline -------------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pass pipeline over the MarshalPlan IR.  Every pass reads the
/// analysis facts buildSeqPlan recorded and rewrites only the step list:
/// chunk coalescing replaces runs of segments with FixedChunks, the other
/// passes annotate.  The bounded/scratch/alias annotations use the same
/// shared predicates the emitter consults, so the dumped plan and the
/// generated code cannot disagree.
///
//===----------------------------------------------------------------------===//

#include "backends/Passes.h"
#include "support/Stats.h"
#include <cassert>

using namespace flick;

//===----------------------------------------------------------------------===//
// Registry and CLI surface
//===----------------------------------------------------------------------===//

const std::vector<PassInfo> &flick::passRegistry() {
  static const std::vector<PassInfo> Registry = {
      {"inline", "inline aggregate marshal code into the stubs "
                 "(out-of-line helpers only for recursive types)",
       [](const BackendOptions &O) { return O.Inline; }},
      {"chunk", "coalesce fixed-size segments into single-check chunks "
                "with chunk-pointer addressing",
       [](const BackendOptions &O) { return O.Chunk; }},
      {"memcpy", "block-copy bit-identical arrays and dense chunk members; "
                 "swap-copy byte-reversed arrays in one kernel call",
       [](const BackendOptions &O) { return O.Memcpy; }},
      {"gather", "rewrite large dense copies into by-reference "
                 "scatter-gather segments (flick_iov)",
       [](const BackendOptions &O) { return O.GatherMinBytes > 0; }},
      {"bounded", "pre-ensure bounded variable segments below the "
                  "threshold, eliding their space checks",
       [](const BackendOptions &O) { return O.BoundedThreshold > 0; }},
      {"scratch", "unmarshal server parameters into per-request arena "
                  "storage instead of malloc",
       [](const BackendOptions &O) { return O.ScratchAlloc; }},
      {"alias", "let unmarshaled server data alias the request buffer "
                "in place",
       [](const BackendOptions &O) { return O.BufferAlias; }},
  };
  return Registry;
}

std::vector<std::string> flick::enabledPassNames(const BackendOptions &O) {
  std::vector<std::string> Names;
  for (const PassInfo &P : passRegistry())
    if (P.Enabled(O))
      Names.push_back(P.Name);
  return Names;
}

namespace {

bool setPass(BackendOptions &O, const std::string &Name, bool On) {
  if (Name == "inline")
    O.Inline = On;
  else if (Name == "chunk")
    O.Chunk = On;
  else if (Name == "memcpy")
    O.Memcpy = On;
  else if (Name == "bounded")
    O.BoundedThreshold =
        On ? (O.BoundedThreshold ? O.BoundedThreshold : DefaultBoundedThreshold)
           : 0;
  else if (Name == "gather")
    O.GatherMinBytes =
        On ? (O.GatherMinBytes ? O.GatherMinBytes : DefaultGatherMinBytes) : 0;
  else if (Name == "scratch")
    O.ScratchAlloc = On;
  else if (Name == "alias")
    O.BufferAlias = On;
  else
    return false;
  return true;
}

void setAllPasses(BackendOptions &O, bool On) {
  for (const PassInfo &P : passRegistry())
    setPass(O, P.Name, On);
}

} // namespace

bool flick::parsePassList(const std::string &Spec, BackendOptions &O,
                          std::string &Err) {
  size_t Pos = 0;
  while (Pos <= Spec.size()) {
    size_t Comma = Spec.find(',', Pos);
    size_t End = Comma == std::string::npos ? Spec.size() : Comma;
    std::string Tok = Spec.substr(Pos, End - Pos);
    Pos = End + 1;
    if (Tok.empty())
      continue;
    if (Tok == "all") {
      setAllPasses(O, true);
      continue;
    }
    if (Tok == "none") {
      setAllPasses(O, false);
      continue;
    }
    bool On = true;
    std::string Name = Tok;
    if (Tok[0] == '+' || Tok[0] == '-') {
      On = Tok[0] == '+';
      Name = Tok.substr(1);
    }
    if (!setPass(O, Name, On)) {
      Err = "unknown pass '" + Name +
            "' (valid: inline, chunk, memcpy, gather, bounded, scratch, "
            "alias, plus 'all' and 'none')";
      return false;
    }
  }
  return true;
}

std::string flick::passCatalog() {
  std::string Out = "marshal-plan passes (pipeline order):\n";
  for (const PassInfo &P : passRegistry()) {
    Out += "  ";
    Out += P.Name;
    for (size_t Pad = std::string(P.Name).size(); Pad < 9; ++Pad)
      Out += ' ';
    Out += P.Summary;
    Out += "\n";
  }
  Out += "--passes syntax: comma-separated tokens applied left to right,\n"
         "each 'all', 'none', '<name>', '+<name>', or '-<name>'\n"
         "(e.g. --passes=all,-memcpy); --no-<name> is shorthand for\n"
         "--passes=-<name>\n";
  return Out;
}

//===----------------------------------------------------------------------===//
// The pipeline
//===----------------------------------------------------------------------===//

namespace {

/// Times one pass into a "pass.<name>" Stats region so --stats exposes
/// the pipeline alongside the front-end phases.
template <typename Fn> void runTimed(const char *Name, Fn &&F) {
  if (!Stats::get().enabled()) {
    F();
    return;
  }
  std::string Region = std::string("pass.") + Name;
  StatsPhase Phase(Region.c_str());
  F();
}

} // namespace

void PassPipeline::run(SeqPlan &Plan) const {
  if (O.Inline)
    runTimed("inline", [&] { passInline(Plan); });
  if (O.Chunk)
    runTimed("chunk", [&] { passChunk(Plan); });
  if (O.Memcpy)
    runTimed("memcpy", [&] { passMemcpy(Plan); });
  if (O.GatherMinBytes > 0)
    runTimed("gather", [&] { passGather(Plan); });
  if (O.BoundedThreshold > 0)
    runTimed("bounded", [&] { passBounded(Plan); });
  if (O.ScratchAlloc)
    runTimed("scratch", [&] { passScratch(Plan); });
  if (O.BufferAlias)
    runTimed("alias", [&] { passAlias(Plan); });
}

/// Relaxes the out-of-line policy: with inlining on, only recursive types
/// marshal through helpers, and any fixed union-free aggregate becomes a
/// chunk-coalescing candidate alongside the scalars.
void PassPipeline::passInline(SeqPlan &Plan) const {
  uint64_t Relaxed = 0;
  for (PlanItem &It : Plan.Items) {
    if (It.Pres && classifyPres(It.Pres) == PKind::Void)
      continue; // voids marshal nothing; synthetic test items pass through
    bool Was = It.OutOfLine;
    It.OutOfLine = It.Recursive;
    if (Was && !It.OutOfLine)
      ++Relaxed;
    It.CoalesceOK = It.Fixed && !It.HasUnion && !It.OutOfLine;
  }
  FLICK_STAT_COUNT("plan.inline_items", Relaxed);
}

/// Greedy coalescing: maximal runs of adjacent CoalesceOK segments become
/// one FixedChunk with precomputed member windows (paper §3.1, coalesced
/// buffer checks).  Framing hooks and variable segments break runs.
void PassPipeline::passChunk(SeqPlan &Plan) const {
  std::vector<MarshalStep> Out;
  std::vector<unsigned> Run;
  uint64_t AtomsIn = 0, ChunkBytes = 0, ChunksOut = 0;

  auto Flush = [&] {
    if (Run.empty())
      return;
    MarshalStep St;
    St.Kind = StepKind::FixedChunk;
    uint64_t Off = 0;
    unsigned MaxA = 1;
    for (unsigned Idx : Run) {
      const PlanItem &It = Plan.Items[Idx];
      PlanMember M;
      M.Item = Idx;
      M.WireOff = Off;
      if (It.Pres) {
        LayoutMeasurer Meas(L);
        bool Ok = Meas.walk(It.Pres, Off, MaxA);
        (void)Ok;
        assert(Ok && "coalesced item must be fixed-size");
      } else {
        // Synthetic items (pass unit tests) carry their layout directly.
        Off = alignUpTo(Off, It.FixedAlign) + It.FixedSize;
        MaxA = std::max(MaxA, It.FixedAlign);
      }
      M.WireSize = Off - M.WireOff;
      St.Members.push_back(M);
    }
    St.Size = Off;
    St.Align = MaxA;
    ChunkBytes += Off;
    ++ChunksOut;
    Out.push_back(std::move(St));
    Run.clear();
  };

  for (MarshalStep &St : Plan.Steps) {
    if (St.Kind == StepKind::VariableSegment &&
        Plan.Items[St.Item].CoalesceOK) {
      Run.push_back(St.Item);
      ++AtomsIn;
      continue;
    }
    Flush();
    Out.push_back(St);
  }
  Flush();
  Plan.Steps = std::move(Out);

  FLICK_STAT_COUNT("plan.chunks_before", AtomsIn);
  FLICK_STAT_COUNT("plan.chunks_after", ChunksOut);
  FLICK_STAT_COUNT("plan.chunk_bytes", ChunkBytes);
}

/// Run merging: a chunk member whose wire image is one dense
/// host-identical byte run (no gaps, no swaps, host size == wire size)
/// lowers as a single block copy instead of per-field stores.  Byte
/// arrays and host-identical atomic arrays already block-copy in the
/// emitter, so only Struct and aggregate-element FixedArray members are
/// considered here.
void PassPipeline::passMemcpy(SeqPlan &Plan) const {
  uint64_t Members = 0, Bytes = 0;
  for (MarshalStep &St : Plan.Steps) {
    if (St.Kind != StepKind::FixedChunk)
      continue;
    for (PlanMember &M : St.Members) {
      const PlanItem &It = Plan.Items[M.Item];
      const PresNode *P = It.Pres;
      if (!P || !P->ctype() || It.HasUnion)
        continue;
      switch (P->kind()) {
      case PresNode::Kind::Struct:
        break;
      case PresNode::Kind::FixedArray: {
        const auto *A = cast<PresFixedArray>(P);
        const MintType *EM = A->elem()->mint();
        if (isByteElem(L, EM) || isAtomicMint(EM))
          continue; // the emitter's existing block-copy/loop paths
        break;
      }
      default:
        continue;
      }
      MemcpyRuns R = memcpyRunsOf(P, L);
      if (!denseBitIdentical(R))
        continue;
      // The in-context window must equal the dense wire size: a leading
      // alignment gap would shift every interior offset.
      if (M.WireSize != R.WireSize)
        continue;
      M.Memcpy = true;
      M.MemcpyBytes = R.WireSize;
      ++Members;
      Bytes += R.WireSize;
    }
  }
  FLICK_STAT_COUNT("plan.memcpy_members", Members);
  FLICK_STAT_COUNT("plan.memcpy_bytes", Bytes);
}

/// Scatter-gather rewrite: an encode-request variable segment whose bulk
/// would lower to one dense copy from presented storage becomes a
/// GatherRef step -- the emitter borrows the storage via flick_buf_ref
/// when at least GatherMinBytes are in play and copies below that.
/// Restricted to client request encoding: the segments are only borrowed
/// until the synchronous send inside flick_client_invoke/send_oneway
/// returns, whereas reply buffers are sent after the dispatch frame (and
/// its locals) is gone (DESIGN.md §11).
void PassPipeline::passGather(SeqPlan &Plan) const {
  static const std::string ReqSuffix = "_encode_request";
  uint64_t Segs = 0, MaxBytes = 0;
  if (Plan.Encode && Plan.Label.size() > ReqSuffix.size() &&
      Plan.Label.compare(Plan.Label.size() - ReqSuffix.size(),
                         ReqSuffix.size(), ReqSuffix) == 0) {
    for (MarshalStep &St : Plan.Steps) {
      if (St.Kind != StepKind::VariableSegment)
        continue;
      const PlanItem &It = Plan.Items[St.Item];
      if (!It.Pres || It.HasUnion || It.Recursive || It.OutOfLine)
        continue;
      if (!gatherableSegment(It.Pres, L, O.Memcpy))
        continue;
      St.Kind = StepKind::GatherRef;
      St.GatherMinBytes = O.GatherMinBytes;
      ++Segs;
      if (It.Storage == StorageClass::Bounded)
        MaxBytes += It.MaxBytes;
    }
  }
  FLICK_STAT_COUNT("plan.gather_segments", Segs);
  FLICK_STAT_COUNT("plan.gather_bytes_max", MaxBytes);
}

/// Bounded→fixed promotion (annotation): an encode-side variable segment
/// whose static bound fits the threshold is pre-ensured once; the emitter
/// elides its interior space checks.  Uses the same predicate the emitter
/// consults, so this is documentation-grade truth, not a parallel guess.
void PassPipeline::passBounded(SeqPlan &Plan) const {
  uint64_t Segs = 0, PreBytes = 0;
  if (O.Chunk && Plan.Encode) {
    for (MarshalStep &St : Plan.Steps) {
      if (St.Kind != StepKind::VariableSegment)
        continue;
      const PlanItem &It = Plan.Items[St.Item];
      if (!It.Pres || It.Fixed || It.HasUnion || It.Recursive || It.OutOfLine)
        continue;
      uint64_t N = boundedPreEnsureBytes(It.Pres, L, O.BoundedThreshold);
      if (!N)
        continue;
      St.PreEnsureBytes = N;
      ++Segs;
      PreBytes += N;
    }
  }
  FLICK_STAT_COUNT("plan.bounded_segments", Segs);
  FLICK_STAT_COUNT("plan.bounded_preensure_bytes", PreBytes);
}

namespace {

/// Allocation contract of a pointer-presented segment, or null when the
/// item manages no unmarshal storage.
const AllocSemantics *allocSemOf(const PresNode *P) {
  if (!P)
    return nullptr;
  switch (P->kind()) {
  case PresNode::Kind::Counted:
    return &cast<PresCounted>(P)->alloc();
  case PresNode::Kind::String:
    return &cast<PresString>(P)->alloc();
  case PresNode::Kind::OptPtr:
    return &cast<PresOptPtr>(P)->alloc();
  default:
    return nullptr;
  }
}

} // namespace

/// Scratch-allocation placement (annotation): decode-side server
/// segments whose contract allows request-lifetime storage unmarshal into
/// the per-request arena; everything else stays on the heap.
void PassPipeline::passScratch(SeqPlan &Plan) const {
  uint64_t Segs = 0;
  if (!Plan.Encode) {
    for (MarshalStep &St : Plan.Steps) {
      if (St.Kind != StepKind::VariableSegment)
        continue;
      const PlanItem &It = Plan.Items[St.Item];
      if (It.Fixed)
        continue;
      const AllocSemantics *A = allocSemOf(It.Pres);
      if (!A)
        continue;
      St.Alloc = Plan.ServerSide && A->AllowStackAlloc ? AllocKind::Arena
                                                       : AllocKind::Heap;
      if (St.Alloc == AllocKind::Arena)
        ++Segs;
    }
  }
  FLICK_STAT_COUNT("plan.scratch_segments", Segs);
}

/// Buffer-alias marking (annotation): decode-side server segments whose
/// wire bytes are usable in place skip the copy entirely and point into
/// the request buffer (paper §3.1; requires the scratch contract since
/// the buffer lives exactly as long as the request).
void PassPipeline::passAlias(SeqPlan &Plan) const {
  uint64_t Segs = 0, MaxBytes = 0;
  if (!Plan.Encode && Plan.ServerSide && O.ScratchAlloc) {
    for (MarshalStep &St : Plan.Steps) {
      if (St.Kind != StepKind::VariableSegment)
        continue;
      const PlanItem &It = Plan.Items[St.Item];
      bool Ok = false;
      if (const auto *C = dyn_cast_or_null<PresCounted>(It.Pres))
        Ok = C->alloc().AllowBufferAlias && aliasableCountedElem(C, L);
      else if (const auto *S = dyn_cast_or_null<PresString>(It.Pres))
        Ok = S->alloc().AllowBufferAlias && aliasableString(S, L);
      if (!Ok)
        continue;
      St.Alias = true;
      ++Segs;
      if (It.Storage == StorageClass::Bounded)
        MaxBytes += It.MaxBytes;
    }
  }
  FLICK_STAT_COUNT("plan.alias_segments", Segs);
  FLICK_STAT_COUNT("plan.alias_bytes_max", MaxBytes);
}
