#include "serve/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "core/config.hpp"
#include "opt/cancel.hpp"
#include "support/atomic_file.hpp"
#include "support/build_info.hpp"
#include "support/json.hpp"
#include "support/json_parse.hpp"
#include "support/require.hpp"
#include "support/thread_safety.hpp"

namespace slim::serve {

namespace fs = std::filesystem;
using support::jsonString;
using support::JsonValue;

const char* jobStateName(JobState state) noexcept {
  switch (state) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Done: return "done";
    case JobState::Failed: return "failed";
    case JobState::Cancelled: return "cancelled";
  }
  return "?";
}

namespace {

constexpr const char* kJournalSchema = "slimcodemld-journal-v1";

/// Whether `v` is an integer in [lo, hi] (false for NaN).
bool integerIn(double v, double lo, double hi) noexcept {
  return v >= lo && v <= hi && std::floor(v) == v;
}

bool terminal(JobState s) noexcept {
  return s == JobState::Done || s == JobState::Failed ||
         s == JobState::Cancelled;
}

std::string errorResponse(const std::string& message) {
  std::ostringstream os;
  os << "{\"schema\":\"" << kServeSchema << "\",\"ok\":false,\"error\":";
  jsonString(os, message);
  os << '}';
  return os.str();
}

void sendAll(int fd, std::string_view payload) {
  std::size_t sent = 0;
  while (sent < payload.size()) {
    const ssize_t n = ::send(fd, payload.data() + sent, payload.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return;  // peer gone; nothing sensible left to do
    sent += static_cast<std::size_t>(n);
  }
}

void sendLine(int fd, const std::string& response) {
  sendAll(fd, response + "\n");
}

}  // namespace

struct AnalysisServer::Job {
  std::string id;
  std::uint64_t seq = 0;
  int priority = 0;
  double timeoutSec = 0;  ///< Protocol-level budget (0: none).
  bool checkpointed = false;
  std::string ctl;
  core::Config config;  ///< Parsed & validated at submit.
  JobState state = JobState::Queued;
  std::atomic<bool> cancelRequested{false};
  std::string result;  ///< Rendered JSON report (state Done).
  std::string error;   ///< Detail for Failed / Cancelled.
};

struct AnalysisServer::Impl {
  explicit Impl(ServerOptions opts);
  ~Impl();

  // --- lifecycle ---
  void start();
  void drainAndStop();
  void abortStop();
  void stopThreads();

  // --- socket side ---
  void setUpSocket();
  void closeSocket(bool unlinkFile);
  void acceptLoop();
  void connectionLoop(int fd);
  std::string handleLine(const std::string& line);
  std::string handleSubmit(const Request& req);
  std::string handleStatus(const Request& req);
  std::string handleResult(const Request& req);
  std::string handleCancel(const Request& req);

  // --- queue side ---
  void workerLoop();
  std::shared_ptr<Job> nextQueuedLocked() SLIM_REQUIRES(mutex);
  struct RunOutcome {
    std::string report;
    std::string error;
    bool cancelled = false;
  };
  RunOutcome runJob(Job& job);

  // --- persistence ---
  std::string journalPath() const { return options.stateDir + "/jobs.journal"; }
  std::string resultPath(const std::string& id) const {
    return options.stateDir + "/" + id + ".result.json";
  }
  std::string checkpointPath(const std::string& id) const {
    return options.stateDir + "/" + id + ".ckpt";
  }
  void persistJournalLocked() SLIM_REQUIRES(mutex);
  void recoverJournal() SLIM_REQUIRES(mutex);

  /// Submit-time validation shared by live submissions and recovery.
  /// Returns an error message, or empty when the ctl is acceptable.
  std::string validateJobConfig(const core::Config& config) const;

  ServerOptions options;
  int listenFd = -1;
  int wakePipe[2] = {-1, -1};

  std::atomic<bool> stopping{false};       ///< Cancels fits, stops workers.
  std::atomic<bool> draining{false};       ///< Stops admission.
  std::atomic<bool> stopRequested{false};  ///< Owner should call drainAndStop.
  // started/stopped are touched only by the owning thread (construction,
  // start(), the stop entry points, destruction) — never by workers or
  // connection threads, so they need no mutex.
  bool started = false;
  bool stopped = false;

  mutable support::Mutex mutex;  ///< Guards jobs, nextSeq, journal writes.
  support::CondVar cv;
  // Job objects themselves (state/error/result/deadline fields) are also
  // only mutated under `mutex`, but live in a separate struct the analysis
  // cannot tie to it; that discipline is by convention plus the TSan job.
  std::map<std::string, std::shared_ptr<Job>> jobs SLIM_GUARDED_BY(mutex);
  std::uint64_t nextSeq SLIM_GUARDED_BY(mutex) = 1;
  bool suppressPersist SLIM_GUARDED_BY(mutex) = false;  ///< abortStop: SIGKILL.

  std::vector<std::thread> workers;
  std::thread acceptThread;
  support::Mutex connMutex;
  std::vector<int> connFds SLIM_GUARDED_BY(connMutex);
  std::vector<std::thread> connThreads SLIM_GUARDED_BY(connMutex);
};

AnalysisServer::Impl::Impl(ServerOptions opts) : options(std::move(opts)) {
  SLIM_REQUIRE(!options.socketPath.empty(), "serve: socketPath is required");
  SLIM_REQUIRE(options.workers > 0, "serve: workers must be > 0");
  if (!options.stateDir.empty()) {
    fs::create_directories(options.stateDir);
    // No other thread exists yet; the lock exists so recoverJournal's
    // SLIM_REQUIRES(mutex) contract holds on this call path too.
    support::MutexLock lock(mutex);
    recoverJournal();
  }
  setUpSocket();
}

AnalysisServer::Impl::~Impl() {
  if (started && !stopped) drainAndStop();
  // After drainAndStop/abortStop the fds are already closed; only unlink
  // when this Impl still owns the bound socket (start() never called), so a
  // daemon that re-bound the path after our abortStop keeps its socket.
  closeSocket(/*unlinkFile=*/listenFd >= 0);
}

void AnalysisServer::Impl::setUpSocket() {
  // Socket failures are environment, not caller bugs: std::runtime_error,
  // per the ServerOptions contract.
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options.socketPath.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("serve: socket path too long for AF_UNIX ('" +
                             options.socketPath + "')");
  std::memcpy(addr.sun_path, options.socketPath.c_str(),
              options.socketPath.size() + 1);

  if (fs::exists(options.socketPath)) {
    // Either a stale file from a killed daemon (unlink it) or a live one
    // (refuse: two daemons on one socket would steal each other's clients).
    const int probe = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (probe < 0) throw std::runtime_error("serve: cannot create probe socket");
    const bool alive = ::connect(probe, reinterpret_cast<sockaddr*>(&addr),
                                 sizeof(addr)) == 0;
    ::close(probe);
    if (alive)
      throw std::runtime_error("serve: another daemon is listening on '" +
                               options.socketPath + "'");
    ::unlink(options.socketPath.c_str());
  }

  listenFd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listenFd < 0) throw std::runtime_error("serve: cannot create socket");
  if (::bind(listenFd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
    throw std::runtime_error("serve: cannot bind '" + options.socketPath +
                             "': " + std::strerror(errno));
  if (::listen(listenFd, 64) != 0)
    throw std::runtime_error("serve: listen failed: " +
                             std::string(std::strerror(errno)));
  if (::pipe(wakePipe) != 0)
    throw std::runtime_error("serve: cannot create wake pipe");
}

void AnalysisServer::Impl::closeSocket(bool unlinkFile) {
  if (listenFd >= 0) ::close(listenFd);
  listenFd = -1;
  if (wakePipe[0] >= 0) ::close(wakePipe[0]);
  if (wakePipe[1] >= 0) ::close(wakePipe[1]);
  wakePipe[0] = wakePipe[1] = -1;
  if (unlinkFile && !options.socketPath.empty())
    ::unlink(options.socketPath.c_str());
}

void AnalysisServer::Impl::start() {
  SLIM_REQUIRE(!started, "serve: start() called twice");
  started = true;
  for (int w = 0; w < options.workers; ++w)
    workers.emplace_back([this] { workerLoop(); });
  acceptThread = std::thread([this] { acceptLoop(); });
}

void AnalysisServer::Impl::stopThreads() {
  {
    // Set under `mutex`, which each cv waiter holds while it tests
    // `stopping`, so the notify below cannot fall between a waiter's test
    // and its wait (the join below would then hang).
    support::MutexLock lock(mutex);
    stopping.store(true);
    draining.store(true);
  }
  cv.notifyAll();
  // Wake the accept loop and kick every open connection so blocked reads
  // (including `result wait`ers, woken via cv above) unwind promptly.
  if (wakePipe[1] >= 0) {
    const char x = 'x';
    [[maybe_unused]] const ssize_t n = ::write(wakePipe[1], &x, 1);
  }
  {
    support::MutexLock lock(connMutex);
    for (const int fd : connFds)
      if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }
  for (auto& w : workers) w.join();
  workers.clear();
  if (acceptThread.joinable()) acceptThread.join();
  // Connection threads exit once their fd is shut down.
  std::vector<std::thread> conns;
  {
    support::MutexLock lock(connMutex);
    conns.swap(connThreads);
  }
  for (auto& t : conns) t.join();
}

void AnalysisServer::Impl::drainAndStop() {
  if (stopped || !started) return;
  stopThreads();
  // A graceful exit releases the address immediately — a successor daemon
  // must be able to bind without waiting for this object's destructor.
  closeSocket(/*unlinkFile=*/true);
  {
    support::MutexLock lock(mutex);
    if (!options.stateDir.empty()) persistJournalLocked();
  }
  stopped = true;
}

void AnalysisServer::Impl::abortStop() {
  if (stopped || !started) return;
  {
    // A real SIGKILL persists nothing past the last journal/checkpoint
    // write; suppress every further persist before interrupting the fits.
    support::MutexLock lock(mutex);
    suppressPersist = true;
  }
  stopThreads();
  // SIGKILL semantics: the kernel closes the fds but never unlinks the
  // socket file — a restarted daemon must recognize it as stale.
  closeSocket(/*unlinkFile=*/false);
  stopped = true;
}

// ---------------------------------------------------------------- sockets --

void AnalysisServer::Impl::acceptLoop() {
  for (;;) {
    pollfd pfds[2] = {{listenFd, POLLIN, 0}, {wakePipe[0], POLLIN, 0}};
    if (::poll(pfds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (pfds[1].revents != 0 || stopping.load()) return;
    if ((pfds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listenFd, nullptr, nullptr);
    if (fd < 0) continue;
    support::MutexLock lock(connMutex);
    if (stopping.load()) {
      ::close(fd);
      return;
    }
    connFds.push_back(fd);
    connThreads.emplace_back([this, fd] { connectionLoop(fd); });
  }
}

void AnalysisServer::Impl::connectionLoop(int fd) {
  std::string buffer;
  char chunk[4096];
  for (;;) {
    const auto nl = buffer.find('\n');
    if (nl != std::string::npos) {
      if (nl > options.maxRequestBytes) {
        // An over-long line can arrive fully terminated inside one recv
        // chunk; the no-newline accumulation check below never sees it.
        sendLine(fd, errorResponse(
                         "request exceeds " +
                         std::to_string(options.maxRequestBytes) + " bytes"));
        break;
      }
      std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) {
        sendLine(fd, errorResponse("empty request"));
        continue;
      }
      sendLine(fd, handleLine(line));
      continue;
    }
    if (buffer.size() > options.maxRequestBytes) {
      // Admission control: never buffer (or parse) an unbounded request.
      sendLine(fd, errorResponse(
                       "request exceeds " +
                       std::to_string(options.maxRequestBytes) + " bytes"));
      break;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  support::MutexLock lock(connMutex);
  if (const auto it = std::find(connFds.begin(), connFds.end(), fd);
      it != connFds.end())
    *it = -1;
}

std::string AnalysisServer::Impl::handleLine(const std::string& line) {
  Request req;
  try {
    req = parseRequest(line);
  } catch (const std::exception& e) {
    return errorResponse(e.what());
  }
  switch (req.op) {
    case Op::Ping:
      return std::string("{\"schema\":\"") + std::string(kServeSchema) +
             "\",\"ok\":true,\"op\":\"ping\"}";
    case Op::Status: return handleStatus(req);
    case Op::Submit: return handleSubmit(req);
    case Op::Result: return handleResult(req);
    case Op::Cancel: return handleCancel(req);
    case Op::Drain: {
      draining.store(true);
      stopRequested.store(true);
      cv.notifyAll();
      return std::string("{\"schema\":\"") + std::string(kServeSchema) +
             "\",\"ok\":true,\"op\":\"drain\"}";
    }
  }
  return errorResponse("unhandled op");
}

std::string AnalysisServer::Impl::validateJobConfig(
    const core::Config& config) const {
  if (config.seqfiles.empty())
    return "ctl: seqfile is required";
  if (!config.checkpointPath.empty() || config.resume)
    return "ctl must not set 'checkpoint' — request it with the protocol's "
           "\"checkpoint\" flag (the daemon owns checkpoint paths)";
  if (!config.outfile.empty() && config.outfile != "-")
    return "daemon jobs return the report over the wire; remove 'outfile'";
  return {};
}

std::string AnalysisServer::Impl::handleSubmit(const Request& req) {
  core::Config config;
  try {
    config = core::Config::parseString(req.ctl);
  } catch (const std::exception& e) {
    return errorResponse(std::string("ctl: ") + e.what());
  }
  if (std::string problem = validateJobConfig(config); !problem.empty())
    return errorResponse(problem);
  if (req.checkpoint && options.stateDir.empty())
    return errorResponse(
        "daemon was started without --state; checkpointed jobs are "
        "unavailable");

  support::MutexLock lock(mutex);
  if (draining.load())
    return errorResponse("server is draining; not accepting jobs");
  std::size_t queued = 0;
  for (const auto& [id, job] : jobs)
    if (job->state == JobState::Queued) ++queued;
  if (queued >= options.maxQueued)
    return errorResponse("queue full (" + std::to_string(queued) +
                         " jobs queued; maxQueued = " +
                         std::to_string(options.maxQueued) + ")");

  auto job = std::make_shared<Job>();
  job->seq = nextSeq++;
  job->id = "job-" + std::to_string(job->seq);
  job->priority = req.priority;
  job->timeoutSec = req.timeoutSec;
  job->checkpointed = req.checkpoint;
  job->ctl = req.ctl;
  job->config = std::move(config);
  // recoverJournal keeps every recovered seq below nextSeq.
  const bool inserted = jobs.emplace(job->id, job).second;
  SLIM_REQUIRE(inserted, "serve: job id " + job->id + " is already taken");
  if (!options.stateDir.empty() && !suppressPersist) persistJournalLocked();
  lock.unlock();
  cv.notifyAll();

  std::ostringstream os;
  os << "{\"schema\":\"" << kServeSchema
     << "\",\"ok\":true,\"op\":\"submit\",\"id\":";
  jsonString(os, job->id);
  os << ",\"state\":\"queued\"}";
  return os.str();
}

std::string AnalysisServer::Impl::handleStatus(const Request& req) {
  support::MutexLock lock(mutex);
  if (!req.id.empty()) {
    const auto it = jobs.find(req.id);
    if (it == jobs.end())
      return errorResponse("unknown job id \"" + req.id + "\"");
    const Job& job = *it->second;
    std::ostringstream os;
    os << "{\"schema\":\"" << kServeSchema
       << "\",\"ok\":true,\"op\":\"status\",\"job\":{\"id\":";
    jsonString(os, job.id);
    os << ",\"state\":\"" << jobStateName(job.state)
       << "\",\"priority\":" << job.priority;
    if (!job.error.empty()) {
      os << ",\"error\":";
      jsonString(os, job.error);
    }
    os << "}}";
    return os.str();
  }

  std::size_t byState[5] = {};
  for (const auto& [id, job] : jobs)
    ++byState[static_cast<int>(job->state)];
  lock.unlock();

  // `contextCache` is a constant: the daemon keeps no parsed inputs between
  // jobs, and slimcodeml-serve-v1 readers still parse the field.
  std::ostringstream os;
  os << "{\"schema\":\"" << kServeSchema
     << "\",\"ok\":true,\"op\":\"status\",\"server\":{\"version\":"
     << support::buildInfoJson() << ",\"draining\":"
     << (draining.load() ? "true" : "false")
     << ",\"workers\":" << options.workers
     << ",\"maxQueued\":" << options.maxQueued << ",\"jobs\":{\"queued\":"
     << byState[static_cast<int>(JobState::Queued)] << ",\"running\":"
     << byState[static_cast<int>(JobState::Running)] << ",\"done\":"
     << byState[static_cast<int>(JobState::Done)] << ",\"failed\":"
     << byState[static_cast<int>(JobState::Failed)] << ",\"cancelled\":"
     << byState[static_cast<int>(JobState::Cancelled)]
     << "},\"contextCache\":{\"entries\":0,\"hits\":0,\"misses\":0}}}";
  return os.str();
}

std::string AnalysisServer::Impl::handleResult(const Request& req) {
  support::MutexLock lock(mutex);
  const auto it = jobs.find(req.id);
  if (it == jobs.end())
    return errorResponse("unknown job id \"" + req.id + "\"");
  const std::shared_ptr<Job> job = it->second;
  if (req.wait)
    cv.wait(lock, [&] { return terminal(job->state) || stopping.load(); });
  if (!terminal(job->state))
    return errorResponse(stopping.load()
                             ? "server stopping before job " + job->id +
                                   " finished"
                             : "job " + job->id + " is not finished (state " +
                                   jobStateName(job->state) + ")");
  std::ostringstream os;
  if (job->state == JobState::Done) {
    os << "{\"schema\":\"" << kServeSchema
       << "\",\"ok\":true,\"op\":\"result\",\"id\":";
    jsonString(os, job->id);
    // The report is spliced in verbatim — byte-identical to what
    // `slimcodeml --json` writes for the same ctl.
    os << ",\"state\":\"done\",\"report\":" << job->result << "}";
  } else {
    os << "{\"schema\":\"" << kServeSchema
       << "\",\"ok\":false,\"op\":\"result\",\"id\":";
    jsonString(os, job->id);
    os << ",\"state\":\"" << jobStateName(job->state) << "\",\"error\":";
    jsonString(os, job->error.empty() ? "job did not finish" : job->error);
    os << "}";
  }
  return os.str();
}

std::string AnalysisServer::Impl::handleCancel(const Request& req) {
  support::MutexLock lock(mutex);
  const auto it = jobs.find(req.id);
  if (it == jobs.end())
    return errorResponse("unknown job id \"" + req.id + "\"");
  Job& job = *it->second;
  if (job.state == JobState::Queued) {
    job.state = JobState::Cancelled;
    job.error = "cancelled by client";
    if (!options.stateDir.empty() && !suppressPersist) persistJournalLocked();
  } else if (job.state == JobState::Running) {
    // Cooperative: the running fit observes the flag at its next iteration
    // boundary and stops at the last accepted point.
    job.cancelRequested.store(true);
  }
  const JobState state = job.state;
  lock.unlock();
  cv.notifyAll();

  std::ostringstream os;
  os << "{\"schema\":\"" << kServeSchema
     << "\",\"ok\":true,\"op\":\"cancel\",\"id\":";
  jsonString(os, req.id);
  os << ",\"state\":\"" << jobStateName(state) << "\"}";
  return os.str();
}

// ------------------------------------------------------------------ queue --

std::shared_ptr<AnalysisServer::Job> AnalysisServer::Impl::nextQueuedLocked() {
  std::shared_ptr<Job> best;
  for (const auto& [id, job] : jobs) {
    if (job->state != JobState::Queued) continue;
    if (!best || job->priority > best->priority ||
        (job->priority == best->priority && job->seq < best->seq))
      best = job;
  }
  return best;
}

void AnalysisServer::Impl::workerLoop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      support::MutexLock lock(mutex);
      cv.wait(lock, [&]() SLIM_REQUIRES(mutex) {
        return stopping.load() || nextQueuedLocked() != nullptr;
      });
      if (stopping.load()) return;
      job = nextQueuedLocked();
      job->state = JobState::Running;
      if (!options.stateDir.empty() && !suppressPersist) persistJournalLocked();
    }
    cv.notifyAll();

    const RunOutcome out = runJob(*job);

    {
      support::MutexLock lock(mutex);
      if (!out.error.empty()) {
        job->state = JobState::Failed;
        job->error = out.error;
      } else if (out.cancelled) {
        if (job->cancelRequested.load()) {
          job->state = JobState::Cancelled;
          job->error = "cancelled by client";
        } else if (stopping.load()) {
          // Interrupted by drain/shutdown, not finished: requeue so the
          // journal records it as pending and a restarted daemon resumes it
          // (from its checkpoint when it has one).
          job->state = JobState::Queued;
        } else {
          job->state = JobState::Failed;
          job->error = "deadline exceeded";
        }
      } else {
        job->state = JobState::Done;
        job->result = out.report;
        if (!options.stateDir.empty() && !suppressPersist)
          support::writeFileAtomic(resultPath(job->id), out.report + "\n");
      }
      if (!options.stateDir.empty() && !suppressPersist) persistJournalLocked();
    }
    cv.notifyAll();
  }
}

AnalysisServer::Impl::RunOutcome AnalysisServer::Impl::runJob(Job& job) {
  RunOutcome out;
  try {
    core::Config config = job.config;
    // Drain/shutdown, client cancel and the protocol budget (armed now: queue
    // wait does not count) compose onto the one predicate the optimizer
    // polls at iteration boundaries; runConfig adds the ctl's timeoutSec.
    const opt::CancelPredicate deadline =
        job.timeoutSec > 0 ? opt::deadlineAfter(job.timeoutSec) : nullptr;
    config.fit.bfgs.cancel = [this, &job, deadline] {
      return stopping.load(std::memory_order_relaxed) ||
             job.cancelRequested.load(std::memory_order_relaxed) ||
             (deadline && deadline());
    };
    if (job.checkpointed) {
      // Resume always: a fresh file falls back to a fresh run, an existing
      // one (daemon restart) continues bit-identically.
      config.checkpointPath = checkpointPath(job.id);
      config.resume = true;
    }

    const core::RunOutput run = core::runConfig(config);
    for (const auto& test : run.tests)
      out.cancelled |= test.h0.cancelled || test.h1.cancelled;
    if (out.cancelled) return out;

    std::ostringstream os;
    core::writeJsonRunReport(os, run, config.engine);
    out.report = os.str();
    while (!out.report.empty() && out.report.back() == '\n')
      out.report.pop_back();

    if (job.checkpointed) {
      // The job is complete; its checkpoint has served its purpose.  Drop it
      // so the state directory only holds live state (and the restart path
      // serves the recorded result instead of re-running).
      std::error_code ec;
      fs::remove(config.checkpointPath, ec);
    }
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

// ------------------------------------------------------------ persistence --

void AnalysisServer::Impl::persistJournalLocked() {
  std::ostringstream os;
  os << "{\"schema\":\"" << kJournalSchema << "\",\"nextSeq\":" << nextSeq
     << "}\n";
  // Seq order keeps the journal deterministic for a given queue state.
  std::vector<std::shared_ptr<Job>> ordered;
  ordered.reserve(jobs.size());
  for (const auto& [id, job] : jobs) ordered.push_back(job);
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return a->seq < b->seq; });
  for (const auto& job : ordered) {
    os << "{\"id\":";
    jsonString(os, job->id);
    os << ",\"seq\":" << job->seq << ",\"state\":\""
       << jobStateName(job->state) << "\",\"priority\":" << job->priority
       << ",\"timeoutSec\":";
    support::jsonNumber(os, job->timeoutSec);
    os << ",\"checkpoint\":" << (job->checkpointed ? "true" : "false")
       << ",\"ctl\":";
    jsonString(os, job->ctl);
    if (!job->error.empty()) {
      os << ",\"error\":";
      jsonString(os, job->error);
    }
    os << "}\n";
  }
  support::writeFileAtomic(journalPath(), os.str());
}

void AnalysisServer::Impl::recoverJournal() {
  std::ifstream in(journalPath());
  if (!in.good()) return;  // fresh state directory

  const auto fail = [this](int lineNo, const std::string& what) {
    throw std::runtime_error(journalPath() + " line " +
                             std::to_string(lineNo) + ": " + what);
  };

  std::string line;
  int lineNo = 0;
  bool sawHeader = false;
  while (std::getline(in, line)) {
    ++lineNo;
    if (line.empty()) continue;
    JsonValue doc;
    try {
      doc = support::parseJson(line);
    } catch (const std::exception& e) {
      fail(lineNo, e.what());
    }
    if (!sawHeader) {
      sawHeader = true;
      if (const JsonValue* schema = doc.find("schema");
          schema == nullptr || !schema->isString() ||
          schema->asString() != kJournalSchema)
        fail(lineNo, std::string("expected journal schema \"") +
                         kJournalSchema + "\"");
      // 2^53: every integer up to it round-trips through a JSON number.
      const double seq = doc.at("nextSeq").asNumber();
      if (!integerIn(seq, 1, 9007199254740992.0))
        fail(lineNo, "invalid nextSeq");
      nextSeq = static_cast<std::uint64_t>(seq);
      continue;
    }
    auto job = std::make_shared<Job>();
    try {
      // Fields are checked before any cast: the daemon writes only ids
      // "job-<seq>" with seq below nextSeq, so a journal breaking that would
      // make the next submission collide with a recovered job.
      const double seq = doc.at("seq").asNumber();
      if (!integerIn(seq, 1, static_cast<double>(nextSeq) - 1))
        fail(lineNo, "job seq must be a positive integer below nextSeq " +
                         std::to_string(nextSeq));
      job->seq = static_cast<std::uint64_t>(seq);
      job->id = doc.at("id").asString();
      if (job->id != "job-" + std::to_string(job->seq))
        fail(lineNo, "job id \"" + job->id + "\" does not match seq " +
                         std::to_string(job->seq));
      if (jobs.count(job->id) != 0)
        fail(lineNo, "duplicate job seq " + std::to_string(job->seq));
      const double priority = doc.at("priority").asNumber();
      if (!integerIn(priority, kMinPriority, kMaxPriority))
        fail(lineNo, "job priority must be an integer in [" +
                         std::to_string(kMinPriority) + ", " +
                         std::to_string(kMaxPriority) + "]");
      job->priority = static_cast<int>(priority);
      job->timeoutSec = doc.at("timeoutSec").asNumber();
      if (!(job->timeoutSec >= 0)) fail(lineNo, "job timeoutSec must be >= 0");
      job->checkpointed = doc.at("checkpoint").asBool();
      job->ctl = doc.at("ctl").asString();
      const std::string& state = doc.at("state").asString();
      if (state == "queued" || state == "running") {
        // Interrupted (or never started) when the daemon died: requeue.  A
        // checkpointed job resumes its recorded trajectory from <id>.ckpt.
        job->state = JobState::Queued;
      } else if (state == "done") {
        job->state = JobState::Done;
      } else if (state == "failed") {
        job->state = JobState::Failed;
      } else if (state == "cancelled") {
        job->state = JobState::Cancelled;
      } else {
        fail(lineNo, "unknown job state \"" + state + "\"");
      }
      if (const JsonValue* error = doc.find("error"))
        job->error = error->asString();
    } catch (const support::JsonError& e) {
      fail(lineNo, e.what());
    }

    if (job->state == JobState::Queued) {
      try {
        job->config = core::Config::parseString(job->ctl);
      } catch (const std::exception& e) {
        job->state = JobState::Failed;
        job->error = std::string("ctl no longer parses on recovery: ") +
                     e.what();
      }
      if (job->state == JobState::Queued) {
        if (std::string problem = validateJobConfig(job->config);
            !problem.empty()) {
          job->state = JobState::Failed;
          job->error = "ctl failed validation on recovery: " + problem;
        }
      }
    } else if (job->state == JobState::Done) {
      std::ifstream result(resultPath(job->id));
      if (result.good()) {
        std::ostringstream buffer;
        buffer << result.rdbuf();
        job->result = buffer.str();
        while (!job->result.empty() && job->result.back() == '\n')
          job->result.pop_back();
      } else {
        job->state = JobState::Failed;
        job->error = "recorded result file is missing (" +
                     resultPath(job->id) + ")";
      }
    }
    jobs[job->id] = job;
  }
  if (!sawHeader && lineNo > 0) fail(1, "journal has no header line");
}

// -------------------------------------------------------------- public API --

AnalysisServer::AnalysisServer(ServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

AnalysisServer::~AnalysisServer() = default;

void AnalysisServer::start() { impl_->start(); }

bool AnalysisServer::stopRequested() const noexcept {
  return impl_->stopRequested.load();
}

void AnalysisServer::requestStop() noexcept { impl_->stopRequested.store(true); }

void AnalysisServer::drainAndStop() { impl_->drainAndStop(); }

void AnalysisServer::abortStop() { impl_->abortStop(); }

const std::string& AnalysisServer::socketPath() const noexcept {
  return impl_->options.socketPath;
}

}  // namespace slim::serve
