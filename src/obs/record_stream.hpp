/**
 * @file
 * RecordStream<T>: the one ring-plus-sink contract behind every per-run
 * record stream — the decision trace (obs::Tracer, T = TraceEvent) and
 * the cluster-state timeline (obs::Timeline, T = TimelineSample).
 *
 * Contract:
 *  - near-zero cost when disabled: callers test enabled(), one inline
 *    bool, before building a record;
 *  - bounded memory: at most `ringCapacity` records are held. Without a
 *    sink, a full ring overwrites its oldest record and counts it as
 *    dropped. With a sink (RecordStreamConfig::sinkPath) a full ring
 *    drains to the sink instead, and once more at take(), so the JSONL
 *    file is complete and `dropped` stays 0, bounded only by disk;
 *  - a sink that cannot be opened or written falls back to ring
 *    eviction and is reported as `sinkOk == false`. Lines the sink took
 *    but never got through its descriptor count as dropped, so every
 *    harvested buffer holds recorded == records + dropped + flushed;
 *  - deterministic: records serialize through the record type's
 *    `toJson(const T&)`, and one stream belongs to one run on one thread
 *    (no locking), so for a fixed seed the bytes are identical at any
 *    runner thread count.
 *
 * Enablement: a config's Mode::Auto defers to its environment variable
 * through envSwitch() — unset/""/"0"/"off"/"false" = off, "1"/"on"/
 * "true" = on, any other value = on and names a default JSONL path.
 */

#ifndef HCLOUD_OBS_RECORD_STREAM_HPP
#define HCLOUD_OBS_RECORD_STREAM_HPP

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace_sink.hpp"

namespace hcloud::obs {

/** An environment toggle: HCLOUD_TRACE, HCLOUD_TIMELINE. */
struct EnvSwitch
{
    bool enabled = false;
    /** Default JSONL output path when the value is not a boolean token
     *  ("" otherwise). */
    std::string path;
};

/** Read the toggle @p var (token rules in the file comment). */
EnvSwitch envSwitch(const char* var);

/** Knobs every record stream shares; embedded in TraceConfig and
 *  TimelineConfig, which set the ring default and the variable. */
struct RecordStreamConfig
{
    enum class Mode
    {
        Auto, ///< follow the stream's environment variable
        Off,
        On,
    };

    Mode mode = Mode::Auto;
    /** Ring size in records; the oldest record is dropped when full. */
    std::size_t ringCapacity = 1;
    /**
     * When non-empty, this run's records stream to a JSONL sink at
     * exactly this path: the ring becomes a flush buffer and `dropped`
     * stays 0. One run must own the path exclusively — for runner-driven
     * sweeps use sinkStem instead.
     */
    std::string sinkPath;
    /**
     * Per-run sink derivation stem for exp::Runner sweeps: each run the
     * runner executes derives its own sinkPath ("<stem>.<tag>.part"),
     * and exp::writeTraceJsonl / writeTimelineJsonl merge the parts in
     * deterministic result order. Ignored by the stream itself.
     */
    std::string sinkStem;

    /** Resolve mode, consulting @p envVar under Auto. */
    bool resolveEnabled(const char* envVar) const;
};

/** The harvested stream plus bookkeeping, as stored in a RunResult. */
template <typename T>
struct RecordBuffer
{
    /** Retained in-memory records in chronological order (empty when
     *  the full stream went to a sink file instead). */
    std::vector<T> records;
    /** Records accepted by the stream (>= records.size()). */
    std::uint64_t recorded = 0;
    /** Records evicted by the ring bound or lost in a failed sink write
     *  (0 whenever a sink is healthy). */
    std::uint64_t dropped = 0;
    /** Sink file holding the complete stream ("" = ring-only run). */
    std::string sinkPath;
    /** Records whose line reached the sink's descriptor (== recorded
     *  while sinkOk). */
    std::uint64_t flushed = 0;
    /** False when a sink was requested but opening/writing it failed —
     *  the records above then hold the ring-bounded fallback. */
    bool sinkOk = true;
};

/** ProcessMetrics family names and HELP texts one stream publishes. */
struct RecordStreamMetrics
{
    const char* recorded;
    const char* recordedHelp;
    const char* dropped;
    const char* droppedHelp;
    const char* occupancy;
    const char* occupancyHelp;
    const char* sinkOk;
    const char* sinkOkHelp;
};

/** Fold one harvested buffer into the process registry. */
void publishRecordBuffer(const RecordStreamMetrics& metrics,
                         std::uint64_t recorded, std::uint64_t dropped,
                         std::size_t retained, bool sinkOk);

/**
 * Ring, sink and harvest for one run's records of type T. Not
 * thread-safe; each run owns its own stream.
 */
template <typename T>
class RecordStream
{
  public:
    /** @p metrics must outlive the stream (the owners pass statics). */
    explicit RecordStream(const RecordStreamMetrics& metrics)
        : metrics_(&metrics)
    {
    }

    RecordStream(const RecordStream&) = delete;
    RecordStream& operator=(const RecordStream&) = delete;

    /**
     * Re-arm for a new run: counters reset, any open sink closed, and a
     * sink opened at config.sinkPath when @p enabled. The ring keeps the
     * capacity it already grew, so engine-reuse sweeps never reallocate
     * it. Records still held (take() not called) are discarded.
     */
    void reset(const RecordStreamConfig& config, bool enabled)
    {
        sink_.reset(); // closes any previous sink file
        enabled_ = enabled;
        capacity_ = std::max<std::size_t>(config.ringCapacity, 1);
        ring_.clear();
        head_ = 0;
        recorded_ = 0;
        dropped_ = 0;
        flushed_ = 0;
        sinkFailed_ = false;
        if (enabled_ && !config.sinkPath.empty()) {
            sink_ = std::make_unique<TraceSink>(config.sinkPath);
            if (!sink_->ok()) {
                // Unopenable sink: keep recording into the ring; take()
                // reports the failure.
                sink_.reset();
                sinkFailed_ = true;
            }
        }
    }

    bool enabled() const { return enabled_; }

    /** The attached sink, or nullptr (disabled, none configured, or the
     *  sink broke and the stream fell back to ring eviction). */
    const TraceSink* sink() const { return sink_.get(); }

    std::uint64_t recorded() const { return recorded_; }
    std::uint64_t dropped() const { return dropped_; }
    /** Records currently held in the ring. */
    std::size_t retained() const { return ring_.size(); }

    /** The @p i-th oldest retained record (i < retained()). */
    const T& operator[](std::size_t i) const
    {
        return ring_[(head_ + i) % ring_.size()];
    }

    /** Append one record under the ring bound. The caller has already
     *  checked enabled(). */
    void push(T&& record)
    {
        ++recorded_;
        if (ring_.size() == capacity_ && sink_)
            drainToSink(); // empties the ring unless the sink just broke
        if (ring_.size() < capacity_) {
            ring_.push_back(std::move(record));
            return;
        }
        // Ring full and no sink: overwrite the oldest slot.
        ring_[head_] = std::move(record);
        head_ = (head_ + 1) % capacity_;
        ++dropped_;
    }

    /** Non-destructive copy of the stream so far (the sink stays open). */
    RecordBuffer<T> snapshot() const
    {
        RecordBuffer<T> buffer = counts();
        buffer.records.reserve(ring_.size());
        for (std::size_t i = 0; i < ring_.size(); ++i)
            buffer.records.push_back((*this)[i]);
        return buffer;
    }

    /**
     * Move the stream out; the stream is then empty but keeps its
     * enablement. With a sink attached the ring is drained and the file
     * closed first, and the buffer names the file instead of holding
     * records.
     */
    RecordBuffer<T> take()
    {
        // Final drain: the file must hold every record before the buffer
        // advertises its path.
        if (sink_ && drainToSink() && !sink_->flush())
            failSink();
        RecordBuffer<T> buffer = counts();
        sink_.reset();
        // A drained ring stays here with its capacity: RunResults must
        // not each carry an empty ring-sized allocation.
        if (!ring_.empty()) {
            std::rotate(ring_.begin(), ring_.begin() + head_, ring_.end());
            buffer.records = std::move(ring_);
            ring_.clear();
        }
        head_ = 0;
        recorded_ = 0;
        dropped_ = 0;
        flushed_ = 0;
        if (enabled_)
            publishRecordBuffer(*metrics_, buffer.recorded, buffer.dropped,
                                buffer.records.size(), buffer.sinkOk);
        return buffer;
    }

  private:
    /** Everything but the records. */
    RecordBuffer<T> counts() const
    {
        RecordBuffer<T> buffer;
        buffer.recorded = recorded_;
        buffer.dropped = dropped_;
        buffer.flushed = sink_ ? sink_->flushedLines() : flushed_;
        buffer.sinkOk = !sinkFailed_;
        if (sink_)
            buffer.sinkPath = sink_->path();
        return buffer;
    }

    /** Hand the ring to the sink, oldest first. While a sink is attached
     *  the ring never wraps (head_ == 0). On failure keeps the records
     *  the sink refused and drops the sink. */
    bool drainToSink()
    {
        for (std::size_t i = 0; i < ring_.size(); ++i) {
            if (!sink_->appendLine(toJson(ring_[i]))) {
                ring_.erase(ring_.begin(),
                            ring_.begin() + static_cast<std::ptrdiff_t>(i));
                failSink();
                return false;
            }
        }
        ring_.clear();
        return true;
    }

    /** Latch a broken sink: lines it took but never wrote are dropped. */
    void failSink()
    {
        flushed_ = sink_->flushedLines();
        dropped_ += sink_->written() - flushed_;
        sink_.reset();
        sinkFailed_ = true;
    }

    const RecordStreamMetrics* metrics_;
    bool enabled_ = false;
    std::size_t capacity_ = 1;
    std::vector<T> ring_;
    /** Index of the chronologically-oldest record once the ring wrapped. */
    std::size_t head_ = 0;
    std::uint64_t recorded_ = 0;
    std::uint64_t dropped_ = 0;
    /** Lines on disk when the sink broke. */
    std::uint64_t flushed_ = 0;
    std::unique_ptr<TraceSink> sink_;
    /** A sink was requested but could not be opened or written. */
    bool sinkFailed_ = false;
};

/** Write one record per line. */
template <typename T>
void
writeJsonl(std::ostream& out, const RecordBuffer<T>& buffer)
{
    for (const T& record : buffer.records)
        out << toJson(record) << '\n';
}

} // namespace hcloud::obs

#endif // HCLOUD_OBS_RECORD_STREAM_HPP
