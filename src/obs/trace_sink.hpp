/**
 * @file
 * TraceSink: incremental, fd-backed JSONL line sink.
 *
 * The sink exists so record streams of long runs are bounded only by
 * disk, never by a ring: obs::RecordStream drains its ring into the sink
 * whenever the ring would wrap (and once more at take()), and the span
 * tracer streams its lines through it directly. The sink knows nothing
 * of the line format; callers hand it serialized JSON.
 *
 * Contracts:
 *  - one sink file per owner (a run's stream is single-threaded; the
 *    span tracer serializes appends under its own mutex), so the sink
 *    needs no locking;
 *  - lines are buffered in memory and pushed through the file
 *    descriptor in large chunks; any short write or I/O error latches
 *    ok() to false. Lines still buffered at that point are lost, which
 *    the written()/flushedLines() pair makes countable.
 */

#ifndef HCLOUD_OBS_TRACE_SINK_HPP
#define HCLOUD_OBS_TRACE_SINK_HPP

#include <cstdint>
#include <string>
#include <string_view>

namespace hcloud::obs {

/** Streams JSONL lines to a file. */
class TraceSink
{
  public:
    /** Opens (creates/truncates) @p path; check ok() afterwards. */
    explicit TraceSink(std::string path);
    ~TraceSink();

    TraceSink(const TraceSink&) = delete;
    TraceSink& operator=(const TraceSink&) = delete;

    /** False once the file failed to open or a write failed. */
    bool ok() const { return fd_ >= 0 && !failed_; }
    const std::string& path() const { return path_; }

    /** Buffer one serialized JSONL line (no trailing newline — the sink
     *  adds it).
     *  @return false when the sink is (or just became) broken; the line
     *  was then not taken. */
    bool appendLine(std::string_view line);

    /** Drain the in-memory buffer through the descriptor. */
    bool flush();

    /** Lines taken by appendLine(). */
    std::uint64_t written() const { return written_; }

    /** Lines that reached the file descriptor (<= written()). */
    std::uint64_t flushedLines() const { return flushed_; }

  private:
    bool drain();

    std::string path_;
    int fd_ = -1;
    std::string buffer_;
    std::uint64_t written_ = 0;
    std::uint64_t flushed_ = 0;
    bool failed_ = false;
};

} // namespace hcloud::obs

#endif // HCLOUD_OBS_TRACE_SINK_HPP
