open Ubpa_util

type verdict = {
  v_inbox : Frame.t list;
  v_missing : Node_id.t list;
  v_newly_dead : Node_id.t list;
}

type event = { e_round : int; e_peer : Node_id.t; e_what : string }

type t = {
  peers : Node_id.t array;  (* ascending, self included *)
  round_ms : float;
  dead_after : int;
  mutable round : int;
  mutable deadline : float;  (* [infinity] = wait for markers forever *)
  done_upto : int array;  (* highest Done/Halt round seen per peer *)
  halted_at : int option array;
  silent : int array;  (* consecutive deadline rounds with no marker *)
  dead : bool array;
  mutable future : Frame.t list;  (* newest first *)
  mutable current : Frame.t list;  (* newest first, Data only *)
  mutable late : int;
  mutable data_frames : int;
  mutable data_bytes : int;
  mutable events : event list;  (* newest first *)
}

let create ~peers ~round_ms ~dead_after =
  if dead_after < 1 then invalid_arg "Sync.create: dead_after < 1";
  let peers = Array.of_list (Node_id.sorted peers) in
  let n = Array.length peers in
  {
    peers;
    round_ms;
    dead_after;
    round = 0;
    deadline = infinity;
    done_upto = Array.make n 0;
    halted_at = Array.make n None;
    silent = Array.make n 0;
    dead = Array.make n false;
    future = [];
    current = [];
    late = 0;
    data_frames = 0;
    data_bytes = 0;
    events = [];
  }

let index t id =
  let n = Array.length t.peers in
  let rec go i = if i >= n then None else if Node_id.equal t.peers.(i) id then Some i else go (i + 1) in
  go 0

(* Classify one frame against the current round. Control markers only
   ever move [done_upto]/[halted_at] forward; Data frames land in the
   current inbox, the future buffer, or the late counter — a late frame
   is dropped here, never handed to the protocol (no cross-round
   contamination). Frame/byte accounting happens at the two terminal
   classifications (current, late), not at receive time: whether a node
   happened to receive a peer's next-round frames before exiting is a
   scheduler race, but what it classified is not. *)
let count_data t (f : Frame.t) =
  t.data_frames <- t.data_frames + 1;
  t.data_bytes <- t.data_bytes + Frame.header_bytes + String.length f.Frame.body

let note_frame t (f : Frame.t) =
  match f.Frame.kind with
  | Frame.Done | Frame.Halt -> (
      match index t f.Frame.src with
      | None -> ()
      | Some i ->
          if f.Frame.round > t.done_upto.(i) then t.done_upto.(i) <- f.Frame.round;
          if f.Frame.kind = Frame.Halt && t.halted_at.(i) = None then
            t.halted_at.(i) <- Some f.Frame.round)
  | Frame.Data ->
      if f.Frame.round = t.round then begin
        count_data t f;
        t.current <- f :: t.current
      end
      else if f.Frame.round > t.round then t.future <- f :: t.future
      else begin
        count_data t f;
        t.late <- t.late + 1;
        t.events <-
          {
            e_round = t.round;
            e_peer = f.Frame.src;
            e_what =
              Printf.sprintf "fault: late frame from #%d (sent r%d) dropped"
                (Node_id.to_int f.Frame.src) f.Frame.round;
          }
          :: t.events
      end

let begin_round t ~round ~now =
  t.round <- round;
  t.deadline <- (if t.round_ms > 0. then now +. (t.round_ms /. 1000.) else infinity);
  let buffered = t.future in
  t.future <- [];
  List.iter (note_frame t) (List.rev buffered)

let offer t frames = List.iter (note_frame t) frames
let timeout t ~now = t.deadline -. now

let waiting_on t =
  let out = ref [] in
  Array.iteri
    (fun i p ->
      let halted_before =
        match t.halted_at.(i) with Some h -> h < t.round | None -> false
      in
      if (not t.dead.(i)) && (not halted_before) && t.done_upto.(i) < t.round then
        out := p :: !out)
    t.peers;
  List.rev !out

let take_inbox t =
  let inbox = List.rev t.current in
  t.current <- [];
  inbox

let ready t ~now =
  let missing = waiting_on t in
  if missing = [] then begin
    Array.iteri (fun i _ -> t.silent.(i) <- 0) t.peers;
    Some { v_inbox = take_inbox t; v_missing = []; v_newly_dead = [] }
  end
  else if now >= t.deadline then begin
    let newly = ref [] in
    Array.iteri
      (fun i p ->
        if List.exists (Node_id.equal p) missing then begin
          t.silent.(i) <- t.silent.(i) + 1;
          if t.silent.(i) >= t.dead_after && not t.dead.(i) then begin
            t.dead.(i) <- true;
            newly := p :: !newly;
            t.events <-
              {
                e_round = t.round;
                e_peer = p;
                e_what =
                  Printf.sprintf "fault: peer #%d presumed dead after %d silent round(s)"
                    (Node_id.to_int p) t.silent.(i);
              }
              :: t.events
          end
        end
        else t.silent.(i) <- 0)
      t.peers;
    Some { v_inbox = take_inbox t; v_missing = missing; v_newly_dead = List.rev !newly }
  end
  else None

let late_frames t = t.late
let data_frames t = t.data_frames
let data_bytes t = t.data_bytes

let dead_peers t =
  let out = ref [] in
  Array.iteri (fun i p -> if t.dead.(i) then out := p :: !out) t.peers;
  List.rev !out

let events t = List.rev t.events
