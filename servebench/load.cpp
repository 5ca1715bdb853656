#include "load.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>
#include <unordered_map>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "net/protocol.hpp"
#include "serve/request.hpp"
#include "util.hpp"

namespace servebench {

namespace {

using namespace bbs;

/** How long requests still outstanding at the window's end may take to
 *  finish before they count as failed. */
constexpr double kDrainTimeoutSeconds = 60.0;

struct Inflight
{
    std::uint32_t entry = 0; ///< pool index
    int slot = 0;
    Clock::time_point sent;
    Clock::time_point lastFrame;
    std::vector<std::int32_t> tokens;
};

/**
 * CPU time between the first and the last event of one kind (a reply, or
 * a result token) inside the window, and the events after the first.
 */
struct CpuSpan
{
    bool started = false;
    double firstMs = 0.0, lastMs = 0.0;
    std::uint64_t first = 0, last = 0; ///< cumulative event counts

    void
    mark(double cpuMs, std::uint64_t count)
    {
        if (!started) {
            started = true;
            firstMs = cpuMs;
            first = count;
        }
        lastMs = cpuMs;
        last = count;
    }
    std::uint64_t events() const { return last - first; }
    double
    perEventMs() const
    {
        return events() > 0 ? (lastMs - firstMs) / static_cast<double>(events())
                            : 0.0;
    }
};

/** CPU milliseconds of the process minus those of the calling thread. */
double
serverCpuMs()
{
    return (processCpuSeconds() - threadCpuSeconds()) * 1e3;
}

struct Conn
{
    int fd = -1;
    std::vector<std::uint8_t> in;
    std::size_t inPos = 0;
    std::vector<std::uint8_t> out;
    std::size_t outPos = 0;
    std::unordered_map<std::uint64_t, Inflight> live;

    Conn() = default;
    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;
    ~Conn()
    {
        if (fd >= 0)
            ::close(fd);
    }
};

int
connectTo(std::uint16_t port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    return fd;
}

/** Send what the socket takes; false on a hard error. */
bool
flush(Conn &c)
{
    while (c.outPos < c.out.size()) {
        ssize_t n = ::send(c.fd, c.out.data() + c.outPos,
                           c.out.size() - c.outPos, MSG_NOSIGNAL);
        if (n > 0) {
            c.outPos += static_cast<std::size_t>(n);
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            return true;
        } else if (n < 0 && errno == EINTR) {
            continue;
        } else {
            return false;
        }
    }
    c.out.clear();
    c.outPos = 0;
    return true;
}

class LoadLoop
{
  public:
    LoadLoop(std::uint16_t port, const LoadSpec &spec)
        : spec_(spec)
    {
        slots_ = spec.connections * spec.depth;
        staggerTokens_ =
            spec.generate ? spec.generate->maxNew /
                                static_cast<std::uint32_t>(slots_)
                          : 0;
        conns_.resize(static_cast<std::size_t>(spec.connections));
        for (auto &c : conns_) {
            c = std::make_unique<Conn>();
            c->fd = connectTo(port);
            if (c->fd < 0)
                fail("connect failed");
        }
        // Frames are encoded once per pool entry with tag 0; send()
        // copies one and patches the tag (the first body field of both
        // Request and Generate frames).
        if (spec.classify) {
            for (const auto &row : spec.classify->rows) {
                net::RequestFrame r;
                r.model = spec.model;
                r.input = row;
                frames_.emplace_back();
                net::encodeRequest(r, frames_.back());
            }
        } else {
            for (const auto &prompt : spec.generate->prompts) {
                net::GenerateFrame g;
                g.model = spec.model;
                g.maxNewTokens = spec.generate->maxNew;
                g.prompt = prompt;
                frames_.emplace_back();
                net::encodeGenerate(g, frames_.back());
            }
        }
    }

    LoadResult run();

  private:
    enum class Phase { Warmup, Window, Drain };

    void
    fail(const std::string &why)
    {
        ++result_.failed;
        if (result_.firstError.empty())
            result_.firstError = why;
    }

    bool send(int slot);
    bool readConn(Conn &c);
    bool handleFrame(Conn &c, net::FrameType type,
                     std::span<const std::uint8_t> body);
    void finish(Conn &c, std::uint64_t tag, Inflight &f, bool ok);
    void maybeLaunch();
    bool inWindow() const { return phase_ == Phase::Window; }

    const LoadSpec &spec_;
    int slots_ = 0;
    std::uint32_t staggerTokens_ = 0; ///< 0 = every slot at once
    int launched_ = 0;
    std::uint64_t slot0Frames_ = 0;
    std::uint64_t nextTag_ = 1;
    std::vector<std::unique_ptr<Conn>> conns_;
    std::vector<std::vector<std::uint8_t>> frames_;
    Phase phase_ = Phase::Warmup;
    Clock::time_point now_;
    LoadResult result_;
    CpuSpan requestCpu_, tokenCpu_;
    bool broken_ = false;
};

bool
LoadLoop::send(int slot)
{
    Conn &c = *conns_[static_cast<std::size_t>(slot % spec_.connections)];
    // Round robin over the pool, so every run sends each entry equally
    // often: on chat the entries differ in prompt length.
    std::uint32_t entry = static_cast<std::uint32_t>(
        (nextTag_ - 1) % frames_.size());
    std::uint64_t tag = nextTag_++;
    const auto &frame = frames_[entry];
    std::size_t at = c.out.size();
    c.out.insert(c.out.end(), frame.begin(), frame.end());
    for (int b = 0; b < 8; ++b)
        c.out[at + net::kHeaderBytes + static_cast<std::size_t>(b)] =
            static_cast<std::uint8_t>(tag >> (8 * b));
    Inflight f;
    f.entry = entry;
    f.slot = slot;
    f.sent = Clock::now();
    f.lastFrame = f.sent;
    c.live.emplace(tag, std::move(f));
    ++result_.attempted;
    return flush(c);
}

void
LoadLoop::maybeLaunch()
{
    while (launched_ < slots_ &&
           (staggerTokens_ == 0 || launched_ == 0 ||
            slot0Frames_ >= static_cast<std::uint64_t>(launched_) *
                                staggerTokens_)) {
        if (!send(launched_))
            broken_ = true;
        ++launched_;
    }
}

void
LoadLoop::finish(Conn &c, std::uint64_t tag, Inflight &f, bool ok)
{
    if (!ok)
        fail(spec_.classify ? "classify reply differs from its oracle"
                            : "stream differs from its oracle");
    if (inWindow()) {
        ++result_.windowRequests;
        result_.latencyMs.push_back(msBetween(f.sent, now_));
        requestCpu_.mark(serverCpuMs(), result_.windowRequests);
    }
    int slot = f.slot;
    c.live.erase(tag);
    if (phase_ != Phase::Drain && !send(slot))
        broken_ = true;
}

bool
LoadLoop::handleFrame(Conn &c, net::FrameType type,
                    std::span<const std::uint8_t> body)
{
    if (spec_.classify) {
        net::ResponseFrame r;
        if (type != net::FrameType::Response || !net::decodeResponse(body, r))
            return false;
        auto it = c.live.find(r.tag);
        if (it == c.live.end())
            return false;
        Inflight &f = it->second;
        bool ok = matchesOracle(*spec_.classify, f.entry,
                                r.status == static_cast<std::uint8_t>(
                                                ServeStatus::Ok),
                                r.logits) &&
                  r.predicted == spec_.classify->predicted[f.entry];
        if (inWindow()) {
            // A one-shot reply is a one-token stream: its first token
            // and its only token gap both end with the reply.
            ++result_.windowTokens;
            double ms = msBetween(f.sent, now_);
            result_.ttftMs.push_back(ms);
            result_.itlMs.push_back(ms);
            tokenCpu_.mark(serverCpuMs(), result_.windowTokens);
        }
        finish(c, r.tag, f, ok);
        return true;
    }

    net::StreamChunkFrame s;
    if (type != net::FrameType::StreamChunk ||
        !net::decodeStreamChunk(body, s))
        return false;
    auto it = c.live.find(s.tag);
    if (it == c.live.end())
        return false;
    Inflight &f = it->second;
    bool okStatus = s.status == static_cast<std::uint8_t>(ServeStatus::Ok);
    if (okStatus) {
        if (s.index != f.tokens.size())
            okStatus = false;
        f.tokens.push_back(s.token);
        if (inWindow()) {
            ++result_.windowTokens;
            double ms = msBetween(s.index == 0 ? f.sent : f.lastFrame, now_);
            (s.index == 0 ? result_.ttftMs : result_.itlMs).push_back(ms);
            tokenCpu_.mark(serverCpuMs(), result_.windowTokens);
        }
        f.lastFrame = now_;
        if (f.slot == 0)
            ++slot0Frames_;
    }
    if (s.last)
        finish(c, s.tag, f,
               okStatus && f.tokens == spec_.generate->tokens[f.entry]);
    return true;
}

bool
LoadLoop::readConn(Conn &c)
{
    std::uint8_t buf[65536];
    for (;;) {
        ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
        if (n > 0) {
            c.in.insert(c.in.end(), buf, buf + n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        if (n < 0 && errno == EINTR)
            continue;
        return false; // EOF or error
    }
    while (c.in.size() - c.inPos >= net::kHeaderBytes) {
        net::FrameHeader h;
        if (!net::decodeHeader({c.in.data() + c.inPos, net::kHeaderBytes}, h))
            return false;
        std::size_t total = net::kHeaderBytes + h.bodyLen;
        if (c.in.size() - c.inPos < total)
            break;
        if (!handleFrame(c, h.type,
                         {c.in.data() + c.inPos + net::kHeaderBytes,
                          h.bodyLen}))
            return false;
        c.inPos += total;
    }
    if (c.inPos > 0 && c.inPos * 2 >= c.in.size()) {
        c.in.erase(c.in.begin(),
                   c.in.begin() + static_cast<std::ptrdiff_t>(c.inPos));
        c.inPos = 0;
    }
    return true;
}

LoadResult
LoadLoop::run()
{
    if (!result_.firstError.empty())
        return result_;
    const Clock::time_point t0 = Clock::now();
    Clock::time_point windowStart{}, windowEnd{}, nextTick{};
    now_ = t0;
    maybeLaunch();

    std::vector<pollfd> fds(conns_.size());
    while (!broken_) {
        now_ = Clock::now();
        if (phase_ == Phase::Warmup && launched_ == slots_ &&
            secondsBetween(t0, now_) >= spec_.warmupSeconds) {
            phase_ = Phase::Window;
            windowStart = nextTick = now_;
            if (spec_.onWindowStart)
                spec_.onWindowStart();
        }
        if (phase_ == Phase::Window &&
            secondsBetween(windowStart, now_) >= spec_.windowSeconds) {
            windowEnd = now_;
            result_.windowSeconds = secondsBetween(windowStart, windowEnd);
            result_.cpuMsPerRequest = requestCpu_.perEventMs();
            result_.cpuMsPerToken = tokenCpu_.perEventMs();
            result_.cpuRequests = requestCpu_.events();
            result_.cpuTokens = tokenCpu_.events();
            if (spec_.onWindowEnd)
                spec_.onWindowEnd();
            phase_ = Phase::Drain;
        }
        if (phase_ == Phase::Window && now_ >= nextTick) {
            if (spec_.onTick)
                spec_.onTick();
            nextTick = now_ + std::chrono::milliseconds(10);
        }
        std::size_t outstanding = 0;
        for (const auto &c : conns_)
            outstanding += c->live.size();
        if (phase_ == Phase::Drain &&
            (outstanding == 0 ||
             secondsBetween(windowEnd, now_) > kDrainTimeoutSeconds))
            break;

        for (std::size_t i = 0; i < conns_.size(); ++i) {
            fds[i].fd = conns_[i]->fd;
            fds[i].events = static_cast<short>(
                POLLIN | (conns_[i]->out.empty() ? 0 : POLLOUT));
            fds[i].revents = 0;
        }
        if (::poll(fds.data(), fds.size(), 5) < 0 && errno != EINTR)
            break;
        now_ = Clock::now();
        for (std::size_t i = 0; i < conns_.size() && !broken_; ++i) {
            Conn &c = *conns_[i];
            if (fds[i].revents & (POLLIN | POLLHUP | POLLERR))
                if (!readConn(c))
                    broken_ = true;
            if (!broken_ && !c.out.empty() && !flush(c))
                broken_ = true;
        }
        maybeLaunch();
    }

    // Whatever is still outstanding never got its full reply: a
    // transport failure or a reply that never ended.
    for (const auto &c : conns_)
        result_.failed += c->live.size();
    if (result_.firstError.empty() && (broken_ || result_.failed > 0))
        result_.firstError = "transport error or unfinished reply";
    return result_;
}

} // namespace

bool
matchesOracle(const ClassifyPool &pool, std::size_t entry, bool ok,
              std::span<const float> logits)
{
    const auto &want = pool.logits[entry];
    return ok && logits.size() == want.size() &&
           std::memcmp(logits.data(), want.data(),
                       want.size() * sizeof(float)) == 0;
}

LoadResult
runLoad(std::uint16_t port, const LoadSpec &spec)
{
    LoadLoop loop(port, spec);
    return loop.run();
}

} // namespace servebench
