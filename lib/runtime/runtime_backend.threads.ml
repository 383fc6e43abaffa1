(* OCaml 5 backend: system threads, plus the in-process transport's
   Mutex-protected mailboxes and socketpair doorbells. Selected by dune
   when the [runtime_events] library exists (OCaml 5). *)

let available = true
let unavailable_reason = ""

(* [Thread.join] does not re-raise what the thread died of, so the
   handle carries it across. *)
type handle = { h_thread : Thread.t; h_exn : exn option ref }

let spawn f =
  let h_exn = ref None in
  let h_thread =
    Thread.create (fun () -> try f () with e -> h_exn := Some e) ()
  in
  { h_thread; h_exn }

let join h =
  Thread.join h.h_thread;
  Option.iter raise !(h.h_exn)

type 'a mailbox = {
  m_mutex : Mutex.t;
  mutable m_queue : 'a list;  (* newest first *)
}

let mailbox () = { m_mutex = Mutex.create (); m_queue = [] }

let push m frame =
  Mutex.lock m.m_mutex;
  m.m_queue <- frame :: m.m_queue;
  Mutex.unlock m.m_mutex

let drain m =
  Mutex.lock m.m_mutex;
  let q = m.m_queue in
  m.m_queue <- [];
  Mutex.unlock m.m_mutex;
  List.rev q

(* A ring is a byte left in a kernel buffer, so it cannot be lost: a
   ring that lands between the owner's last drain and its [wait] makes
   that [wait] return at once. *)
type doorbell = {
  d_ring : Unix.file_descr;  (* non-blocking write end *)
  d_wait : Unix.file_descr;  (* blocking read end *)
  d_buf : Bytes.t;
  mutable d_timeout : float;  (* SO_RCVTIMEO currently set on [d_wait] *)
}

let doorbell () =
  let d_ring, d_wait = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock d_ring;
  { d_ring; d_wait; d_buf = Bytes.create 256; d_timeout = 0. }

(* EAGAIN means the buffer is full of unconsumed rings, so the owner
   wakes anyway; an interrupted write left no byte, so it is retried. *)
let rec ring d =
  try ignore (Unix.single_write_substring d.d_ring "!" 0 1 : int) with
  | Unix.Unix_error (Unix.EINTR, _, _) -> ring d
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

(* The kernel's SO_RCVTIMEO can expire a little before the wall clock
   reaches the deadline, and a signal cuts a read short, so a read that
   comes back empty before the deadline waits again for what is left.
   [infinity] keeps an infinite deadline: only a ring ends that wait. *)
let wait d ~timeout =
  if timeout > 0. then begin
    let deadline = Unix.gettimeofday () +. timeout in
    let rec go left =
      (* SO_RCVTIMEO 0 means "no timeout", which is what [infinity] wants;
         a finite wait is kept at 10 µs or more so that the conversion to
         a timeval cannot round it down to that 0. *)
      let t = if left = infinity then 0. else Float.max left 1e-5 in
      if t <> d.d_timeout then begin
        Unix.setsockopt_float d.d_wait Unix.SO_RCVTIMEO t;
        d.d_timeout <- t
      end;
      match Unix.read d.d_wait d.d_buf 0 (Bytes.length d.d_buf) with
      | (_ : int) -> ()
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          let left = deadline -. Unix.gettimeofday () in
          if left > 0. then go left
    in
    go timeout
  end

let close_doorbell d =
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ d.d_ring; d.d_wait ]
