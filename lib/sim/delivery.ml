open Ubpa_util

type impl = Naive | Arena

type 'm on_deliver = recipient:Node_id.t -> src:Node_id.t -> 'm -> unit

let no_notify : _ on_deliver = fun ~recipient:_ ~src:_ _ -> ()

let notify_of = function None -> no_notify | Some f -> f

let by_sender (a, _) (b, _) = Node_id.compare a b

(* Seed-engine core, kept as the executable specification. The final
   [List.sort] is OCaml's stable sort, so same-sender messages stay in
   send order — the arena core must match that, not just the multiset.

   [on_deliver] fires at the accept point — after the dedup decided the
   delivery counts — with the recipient, sender, and payload; both cores
   call it at exactly the point where they [incr delivered], so wire
   accounting inherits the cores' delivery-identity guarantee. *)
let route_reference ?on_deliver ~equal ~present ~envelopes () =
  let notify = notify_of on_deliver in
  let inboxes : (Node_id.t * 'm) list ref Node_id.Map.t =
    Node_id.Set.fold
      (fun id acc -> Node_id.Map.add id (ref []) acc)
      present Node_id.Map.empty
  in
  let delivered = ref 0 in
  let push recipient (env : 'm Envelope.t) =
    match Node_id.Map.find_opt recipient inboxes with
    | None -> ()
    | Some box ->
        let dup =
          List.exists
            (fun (src, payload) ->
              Node_id.equal src env.src && equal payload env.payload)
            !box
        in
        if not dup then begin
          box := (env.src, env.payload) :: !box;
          incr delivered;
          notify ~recipient ~src:env.src env.payload
        end
  in
  List.iter
    (fun (env : 'm Envelope.t) ->
      match env.dst with
      | Envelope.To id -> push id env
      | Envelope.Broadcast -> Node_id.Set.iter (fun id -> push id env) present)
    envelopes;
  let sorted = Node_id.Map.map (fun box -> List.sort by_sender (List.rev !box)) inboxes in
  (sorted, !delivered)

(* -------------------------------------------------------------------- *)
(* The arena core: the one fast delivery core.                          *)
(*                                                                       *)
(* Rebuilding per-recipient tables and a Node_id.Map every round is fine *)
(* at n ≈ 300 and dominates the profile at n ≈ 10,000. The arena core    *)
(* keeps one grow-only state across rounds instead:                      *)
(*                                                                       *)
(*   - recipients and senders are interned once (the interner persists   *)
(*     and only grows), and per-round presence is a stamp in a flat      *)
(*     array — nothing is cleared between rounds, the stamp just moves;  *)
(*   - a broadcast is ONE logical record (sender, payload, exclusions),  *)
(*     never fanned out into n physical copies: the seal lists the       *)
(*     round's broadcast entries once, in (sender id, seq) order, and    *)
(*     keeps every tail of that list, so an inbox is a short prefix put  *)
(*     in front of one shared tail (see [view_inbox]);                   *)
(*   - unicasts land in flat parallel arenas and are sealed into CSR     *)
(*     slices — (offset, length) ranges into one position array — by a   *)
(*     counting sort, so reading an inbox is a merge of two sorted       *)
(*     cursors;                                                          *)
(*   - sender-level broadcast dedup is a Bitset membership test in the   *)
(*     common one-payload-per-sender case, falling back to a hashed      *)
(*     payload list only for senders that broadcast twice.               *)
(*                                                                       *)
(* Delivery identity with the reference core is the contract: same      *)
(* sorted inboxes, same [delivered] count, same accept-point             *)
(* [on_deliver] multiset. The subtle case is cross-shape dedup — a unicast equal to   *)
(* an earlier broadcast from the same sender is suppressed at scan time, *)
(* while a broadcast equal to an earlier accepted unicast records the    *)
(* already-served recipients in its exclusion list and skips them at     *)
(* read time (and subtracts them from [delivered]).                      *)
(*                                                                       *)
(* Ordering: the reference core stable-sorts each inbox by sender over   *)
(* send order, which is exactly ascending (sender id, global scan        *)
(* position). Every record carries its scan position, so the read-time   *)
(* merge compares (raw sender id, seq) and reproduces the reference      *)
(* order without ever materialising an unsorted inbox.                   *)
(*                                                                       *)
(* Sharing: inbox lists are immutable and handed out as they are, so a   *)
(* protocol state may keep any cons cell of them across rounds. The      *)
(* tails live in [suffix] until the next seal replaces it, which keeps   *)
(* at most one round of lists reachable from the state.                  *)
(* -------------------------------------------------------------------- *)

type 'm arena_state = {
  intr : Interner.t;
      (* Private to the state; persists and grows across rounds. *)
  mutable stamp : int;
      (* Round stamp. A dense index ix is present this round iff
         [present_at.(ix) = stamp]; advancing the stamp invalidates every
         mark in O(1). *)
  mutable present_at : int array;
  pres_ixs : int Arena.t; (* present members, ascending-id order *)
  pres_ids : Node_id.t Arena.t; (* parallel ids for [pres_ixs] *)
  (* Broadcast records: parallel arenas, one slot per accepted broadcast. *)
  b_src : Node_id.t Arena.t;
  b_seq : int Arena.t; (* global scan position, merge tie-break *)
  b_pay : 'm option Arena.t;
  b_excl : int list Arena.t; (* recipient ixs already served by unicast *)
  mutable b_order : int array; (* sealed: record indices by (sender, seq) *)
  mutable suffix : (Node_id.t * 'm) list array;
      (* sealed: [suffix.(i)] lists the entries of sorted records i onward;
         [suffix.(nb)] is empty. *)
  mutable excl_end : int;
      (* sealed: the sorted position after the round's last record with an
         exclusion, 0 if none *)
  bc_any : Bitset.t; (* senders with ≥1 accepted broadcast this round *)
  bc_pay : (int, 'm list) Hashtbl.t; (* sender ix -> distinct payloads *)
  (* Unicast records: parallel arenas, one slot per accepted unicast. *)
  u_rcpt : int Arena.t; (* recipient ix *)
  u_src : Node_id.t Arena.t;
  u_seq : int Arena.t;
  u_pay : 'm option Arena.t;
  uni_seen : (int * int, 'm list) Hashtbl.t;
      (* (recipient ix, sender ix) -> distinct payloads accepted *)
  uni_by_sender : (int, (int * 'm) list) Hashtbl.t;
      (* sender ix -> accepted (recipient ix, payload), for broadcast
         exclusion lists *)
  (* CSR slices into [u_pos], indexed by recipient ix and stamp-guarded
     like [present_at]. *)
  mutable sl_off : int array;
  mutable sl_len : int array;
  mutable sl_fill : int array;
  mutable sl_stamp : int array;
  mutable u_pos : int array;
  mutable delivered : int;
}

type 'm view = 'm arena_state

let dummy_id = Node_id.of_int 0

let arena_create ?(hint = 16) () =
  let hint = max hint 1 in
  {
    intr = Interner.create ~hint ();
    stamp = 0;
    present_at = Array.make hint 0;
    pres_ixs = Arena.create ~hint ~dummy:0 ();
    pres_ids = Arena.create ~hint ~dummy:dummy_id ();
    b_src = Arena.create ~hint ~dummy:dummy_id ();
    b_seq = Arena.create ~hint ~dummy:0 ();
    b_pay = Arena.create ~hint ~dummy:None ();
    b_excl = Arena.create ~hint ~dummy:[] ();
    b_order = [||];
    suffix = [| [] |];
    excl_end = 0;
    bc_any = Bitset.create ~hint ();
    bc_pay = Hashtbl.create 16;
    u_rcpt = Arena.create ~hint ~dummy:0 ();
    u_src = Arena.create ~hint ~dummy:dummy_id ();
    u_seq = Arena.create ~hint ~dummy:0 ();
    u_pay = Arena.create ~hint ~dummy:None ();
    uni_seen = Hashtbl.create 16;
    uni_by_sender = Hashtbl.create 16;
    sl_off = Array.make hint 0;
    sl_len = Array.make hint 0;
    sl_fill = Array.make hint 0;
    sl_stamp = Array.make hint 0;
    u_pos = Array.make hint 0;
    delivered = 0;
  }

(* Grow the stamp-guarded column arrays to cover every interned index.
   New slots are stamp 0, i.e. "never present". *)
let ensure_columns st =
  let need = Interner.size st.intr in
  let old = Array.length st.present_at in
  if need > old then begin
    let grow a =
      let g = Array.make (max need (2 * old)) 0 in
      Array.blit a 0 g 0 old;
      g
    in
    st.present_at <- grow st.present_at;
    st.sl_off <- grow st.sl_off;
    st.sl_len <- grow st.sl_len;
    st.sl_fill <- grow st.sl_fill;
    st.sl_stamp <- grow st.sl_stamp
  end

let raw = Node_id.to_int
let payload_of = function Some p -> p | None -> assert false

(* Seal the unicast arenas into per-recipient CSR slices of [u_pos]:
   counting sort by recipient, then an in-place insertion sort of each
   slice by (sender, seq). Slices arrive in seq order already, so the
   inner sort only moves records when a recipient heard from multiple
   senders out of id order. *)
let seal st =
  let nu = Arena.length st.u_rcpt in
  (* Recipients touched this round, so offset assignment skips the other
     interned indices entirely. *)
  let touched = Arena.create ~hint:16 ~dummy:0 () in
  for k = 0 to nu - 1 do
    let rix = Arena.unsafe_get st.u_rcpt k in
    if st.sl_stamp.(rix) <> st.stamp then begin
      st.sl_stamp.(rix) <- st.stamp;
      st.sl_len.(rix) <- 0;
      Arena.push touched rix
    end;
    st.sl_len.(rix) <- st.sl_len.(rix) + 1
  done;
  let off = ref 0 in
  Arena.iteri touched (fun _ rix ->
      st.sl_off.(rix) <- !off;
      st.sl_fill.(rix) <- !off;
      off := !off + st.sl_len.(rix));
  if nu > Array.length st.u_pos then
    st.u_pos <- Array.make (max nu (2 * Array.length st.u_pos)) 0;
  for k = 0 to nu - 1 do
    let rix = Arena.unsafe_get st.u_rcpt k in
    st.u_pos.(st.sl_fill.(rix)) <- k;
    st.sl_fill.(rix) <- st.sl_fill.(rix) + 1
  done;
  (* Record index order IS seq order, so ties never reach beyond the
     record index comparison. *)
  let before a b =
    let c = compare (raw (Arena.unsafe_get st.u_src a)) (raw (Arena.unsafe_get st.u_src b)) in
    if c <> 0 then c < 0 else a < b
  in
  Arena.iteri touched (fun _ rix ->
      let lo = st.sl_off.(rix) and len = st.sl_len.(rix) in
      for i = lo + 1 to lo + len - 1 do
        let v = st.u_pos.(i) in
        let j = ref i in
        while !j > lo && before v st.u_pos.(!j - 1) do
          st.u_pos.(!j) <- st.u_pos.(!j - 1);
          decr j
        done;
        st.u_pos.(!j) <- v
      done);
  let nb = Arena.length st.b_src in
  let order = Array.init nb (fun i -> i) in
  Array.sort
    (fun a b ->
      let c = compare (raw (Arena.unsafe_get st.b_src a)) (raw (Arena.unsafe_get st.b_src b)) in
      if c <> 0 then c else compare a b)
    order;
  st.b_order <- order;
  (* One list of the round's broadcast entries, built from the back so
     that every tail is a slot of [suffix]. *)
  let suffix = Array.make (nb + 1) [] in
  let excl_end = ref 0 in
  for i = nb - 1 downto 0 do
    let b = order.(i) in
    if !excl_end = 0 && Arena.unsafe_get st.b_excl b <> [] then excl_end := i + 1;
    suffix.(i) <-
      (Arena.unsafe_get st.b_src b, payload_of (Arena.unsafe_get st.b_pay b))
      :: suffix.(i + 1)
  done;
  st.suffix <- suffix;
  st.excl_end <- !excl_end

let rec mem_int (x : int) = function
  | [] -> false
  | y :: l -> x = y || mem_int x l

let route_arena ?on_deliver ~state:st ~equal ~present ~envelopes () =
  (* New round: advance the stamp, drop lengths to zero, keep capacity.
     Payload slots from the previous round stay live until overwritten;
     that pins at most one round of messages, which is the price of the
     allocation-free clear. *)
  st.stamp <- st.stamp + 1;
  st.delivered <- 0;
  Arena.clear st.pres_ixs;
  Arena.clear st.pres_ids;
  Arena.clear st.b_src;
  Arena.clear st.b_seq;
  Arena.clear st.b_pay;
  Arena.clear st.b_excl;
  Arena.clear st.u_rcpt;
  Arena.clear st.u_src;
  Arena.clear st.u_seq;
  Arena.clear st.u_pay;
  Bitset.clear st.bc_any;
  Hashtbl.clear st.bc_pay;
  Hashtbl.clear st.uni_seen;
  Hashtbl.clear st.uni_by_sender;
  Node_id.Set.iter
    (fun id ->
      let ix = Interner.intern st.intr id in
      ensure_columns st;
      st.present_at.(ix) <- st.stamp;
      Arena.push st.pres_ixs ix;
      Arena.push st.pres_ids id)
    present;
  let npresent = Arena.length st.pres_ixs in
  let seq = ref 0 in
  let scan (env : 'm Envelope.t) =
    match env.dst with
    | Envelope.To id -> (
        match Interner.find_opt st.intr id with
        | Some rix
          when rix < Array.length st.present_at
               && st.present_at.(rix) = st.stamp ->
            let six = Interner.intern st.intr env.src in
            ensure_columns st;
            let ukey = (rix, six) in
            let prior = Hashtbl.find_opt st.uni_seen ukey in
            let dup_unicast =
              match prior with
              | Some l -> List.exists (equal env.payload) l
              | None -> false
            in
            let dup_broadcast =
              Bitset.mem st.bc_any six
              && (match Hashtbl.find_opt st.bc_pay six with
                 | Some l -> List.exists (equal env.payload) l
                 | None -> false)
            in
            if not (dup_unicast || dup_broadcast) then begin
              Hashtbl.replace st.uni_seen ukey
                (env.payload :: (match prior with Some l -> l | None -> []));
              Hashtbl.replace st.uni_by_sender six
                ((rix, env.payload)
                ::
                (match Hashtbl.find_opt st.uni_by_sender six with
                | Some l -> l
                | None -> []));
              Arena.push st.u_rcpt rix;
              Arena.push st.u_src env.src;
              Arena.push st.u_seq !seq;
              incr seq;
              Arena.push st.u_pay (Some env.payload);
              st.delivered <- st.delivered + 1;
              match on_deliver with
              | Some f -> f ~recipient:id ~src:env.src env.payload
              | None -> ()
            end
        | _ -> ())
    | Envelope.Broadcast ->
        let six = Interner.intern st.intr env.src in
        ensure_columns st;
        let dup =
          Bitset.mem st.bc_any six
          && (match Hashtbl.find_opt st.bc_pay six with
             | Some l -> List.exists (equal env.payload) l
             | None -> false)
        in
        if not dup then begin
          Bitset.add st.bc_any six;
          Hashtbl.replace st.bc_pay six
            (env.payload
            ::
            (match Hashtbl.find_opt st.bc_pay six with
            | Some l -> l
            | None -> []));
          let excl =
            match Hashtbl.find_opt st.uni_by_sender six with
            | None -> []
            | Some l ->
                List.filter_map
                  (fun (rix, p) -> if equal p env.payload then Some rix else None)
                  l
          in
          Arena.push st.b_src env.src;
          Arena.push st.b_seq !seq;
          incr seq;
          Arena.push st.b_pay (Some env.payload);
          Arena.push st.b_excl excl;
          st.delivered <- st.delivered + npresent - List.length excl;
          match on_deliver with
          | None -> ()
          | Some f ->
              (* Accept-point notification per recipient, ascending id —
                 the multiset matches the reference fan-out. Only walked when
                 a hook is installed, so the wire-accounting-off hot path
                 keeps broadcasts O(1). The loop allocates nothing per
                 recipient. *)
              for k = 0 to npresent - 1 do
                if not (mem_int (Arena.unsafe_get st.pres_ixs k) excl) then
                  f
                    ~recipient:(Arena.unsafe_get st.pres_ids k)
                    ~src:env.src env.payload
              done
        end
  in
  List.iter scan envelopes;
  seal st;
  st

let view_delivered st = st.delivered

(* The first sorted broadcast position whose (raw sender, seq) comes after
   [(src, seq)]. *)
let first_after st ~src ~seq =
  let order = st.b_order in
  let lo = ref 0 and hi = ref (Array.length order) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let b = order.(mid) in
    let c = compare (raw (Arena.unsafe_get st.b_src b)) src in
    if c < 0 || (c = 0 && Arena.unsafe_get st.b_seq b < seq) then lo := mid + 1
    else hi := mid
  done;
  !lo

(* One recipient's inbox. Its cut is the first sorted broadcast position
   after both its last unicast and the round's last record with an
   exclusion: from there on the inbox IS the shared tail [suffix.(cut)].
   The records before the cut (minus this recipient's exclusions) are
   merged with its unicast slice from the back, each entry consed onto
   the tail built so far, so the merge needs no [List.rev] and the
   records' entries are shared too. A recipient with no unicasts in a
   round without exclusions reads [suffix.(0)] and allocates nothing. *)
let view_inbox st id =
  (* [mem] then [slot] rather than [find_opt]: no option per read. *)
  if not (Interner.mem st.intr id) then []
  else
    let rix = Interner.slot st.intr id in
    if rix >= Array.length st.present_at || st.present_at.(rix) <> st.stamp then []
    else begin
      let order = st.b_order in
      let uoff, ulen =
        if rix < Array.length st.sl_stamp && st.sl_stamp.(rix) = st.stamp then
          (st.sl_off.(rix), st.sl_len.(rix))
        else (0, 0)
      in
      let cut =
        if ulen = 0 then st.excl_end
        else
          let u = st.u_pos.(uoff + ulen - 1) in
          Int.max st.excl_end
            (first_after st ~src:(raw (Arena.unsafe_get st.u_src u))
               ~seq:(Arena.unsafe_get st.u_seq u))
      in
      let acc = ref st.suffix.(cut) in
      let bi = ref (cut - 1) and ui = ref (ulen - 1) in
      while !bi >= 0 || !ui >= 0 do
        let b_last =
          !ui < 0
          || !bi >= 0
             &&
             let b = order.(!bi) and u = st.u_pos.(uoff + !ui) in
             let c =
               compare (raw (Arena.unsafe_get st.b_src b)) (raw (Arena.unsafe_get st.u_src u))
             in
             if c <> 0 then c > 0
             else Arena.unsafe_get st.b_seq b > Arena.unsafe_get st.u_seq u
        in
        if b_last then begin
          (if not (mem_int rix (Arena.unsafe_get st.b_excl order.(!bi))) then
             match st.suffix.(!bi) with
             | entry :: _ -> acc := entry :: !acc
             | [] -> assert false);
          decr bi
        end
        else begin
          let u = st.u_pos.(uoff + !ui) in
          acc :=
            (Arena.unsafe_get st.u_src u, payload_of (Arena.unsafe_get st.u_pay u))
            :: !acc;
          decr ui
        end
      done;
      !acc
    end

let view_present st =
  Arena.fold st.pres_ids ~init:[] ~f:(fun acc id -> id :: acc) |> List.rev

let view_to_map st =
  Arena.fold st.pres_ids ~init:Node_id.Map.empty ~f:(fun acc id ->
      Node_id.Map.add id (view_inbox st id) acc)
