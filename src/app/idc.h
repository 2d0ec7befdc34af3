// Inter-domain communication built on events and entries.
//
// Nemesis IDC binds a client to a server through a pair of buffers and an
// event channel: the client deposits a request and sends an event; the
// server's entry is activated, a worker processes the request (blocking
// operations allowed), and the reply comes back the same way. This header
// provides a typed request/reply service in that style.
//
// Note the paper's point about entries vs. the external-pager model: the
// *server* decides its scheduling policy on event handling (worker count,
// queueing), but the work happens with the server's resources — which is why
// Nemesis keeps paging OUT of shared servers. IdcService exists for the
// interactions that genuinely are client/server (e.g. the system-domain
// allocators), and the tests demonstrate the crosstalk a shared server
// reintroduces.
#ifndef SRC_APP_IDC_H_
#define SRC_APP_IDC_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <utility>

#include "src/app/entry.h"
#include "src/kernel/kernel.h"
#include "src/sim/sync.h"

namespace nemesis {

// Server side: processes requests of type Req into replies of type Rep.
// The handler is a coroutine factory so it may block (IDC, disk, ...).
template <typename Req, typename Rep>
class IdcService {
 public:
  // `handler(request, reply_out)` returns the coroutine that computes the
  // reply. Runs on the server entry's worker pool.
  using Handler = std::function<Task(Req request, Rep* reply_out)>;

  IdcService(Simulator& sim, Kernel& kernel, Domain& server_domain, Handler handler,
             size_t workers = 1)
      : sim_(sim), kernel_(kernel), domain_(server_domain), handler_(std::move(handler)),
        entry_(sim, server_domain, workers) {
    request_ep_ = domain_.AllocEndpoint();
    entry_.Attach(request_ep_, [this](EndpointId, uint64_t) { OnRequestEvent(); });
    entry_.Start();
  }

  ~IdcService() {
    // The entry's workers (joining on handler tasks) are stopped first, then
    // the handler tasks die with them — a surviving handler would complete
    // into its Process joiner's destroyed frame.
    entry_.Stop();
    handler_tasks_.KillAll();
  }

  Domain& domain() { return domain_; }
  uint64_t requests_served() const { return requests_served_; }

  // --- client-side binding ---------------------------------------------------

  struct Binding {
    IdcService* service;
    Domain* client_domain;
    // Completed replies are delivered here, in request order per binding.
    std::unique_ptr<Mailbox<Rep>> replies;

    // Client coroutine protocol:
    //   binding->Call(request);
    //   Rep reply = co_await binding->replies->Recv();
    void Call(Req request) { service->Submit(this, std::move(request)); }
  };

  // Creates a binding for `client_domain` (capacity = max outstanding calls).
  std::unique_ptr<Binding> Bind(Domain& client_domain, size_t depth = 4) {
    auto binding = std::make_unique<Binding>();
    binding->service = this;
    binding->client_domain = &client_domain;
    binding->replies = std::make_unique<Mailbox<Rep>>(sim_, depth);
    return binding;
  }

 private:
  struct Pending {
    Binding* binding;
    Req request;
  };

  void Submit(Binding* binding, Req request) {
    queue_.push_back(Pending{binding, std::move(request)});
    // The event transmission that activates the server domain.
    kernel_.SendEvent(domain_.id(), request_ep_);
  }

  void OnRequestEvent() {
    // Notification-handler context: no blocking — hand each request to the
    // worker pool.
    while (!queue_.empty()) {
      Pending pending = std::move(queue_.front());
      queue_.pop_front();
      Binding* binding = pending.binding;
      Req request = std::move(pending.request);
      entry_.QueueJob([this, binding, request = std::move(request)]() mutable -> Task {
        return Process(binding, std::move(request));
      });
    }
  }

  Task Process(Binding* binding, Req request) {
    Rep reply{};
    TaskHandle h =
        handler_tasks_.Adopt(sim_.Spawn(handler_(std::move(request), &reply),
                                        domain_.name() + "/idc"));
    co_await Join(h);
    ++requests_served_;
    co_await binding->replies->Send(std::move(reply));
  }

  Simulator& sim_;
  Kernel& kernel_;
  Domain& domain_;
  Handler handler_;
  Entry entry_;
  EndpointId request_ep_ = 0;
  std::deque<Pending> queue_;
  OwnedTaskSet handler_tasks_;  // in-flight handlers (joined by Process jobs)
  uint64_t requests_served_ = 0;
};

}  // namespace nemesis

#endif  // SRC_APP_IDC_H_
