type span = {
  id : int;
  parent : int;
  req : int;
  name : string;
  t0 : int64;
  t1 : int64;
}

let on = Atomic.make false
let set_enabled b = Atomic.set on b
let enabled () = Atomic.get on

(* the serving run records from the client and from the server's worker
   domain, so the buffer is shared under a mutex *)
let lock = Mutex.create ()
let buf : span list ref = ref []
let next_id = ref 0

(* per-domain stack of open (id, req) pairs *)
let stack : (int * int) list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let push sp =
  Mutex.lock lock;
  buf := sp :: !buf;
  Mutex.unlock lock

let fresh_id () =
  Mutex.lock lock;
  let id = !next_id in
  incr next_id;
  Mutex.unlock lock;
  id

let current () =
  match Domain.DLS.get stack with (id, _) :: _ -> id | [] -> -1

let current_req () =
  match Domain.DLS.get stack with (_, r) :: _ -> r | [] -> -1

let with_span ?parent ?req name f =
  if not (enabled ()) then f ()
  else begin
    let parent = Option.value parent ~default:(current ()) in
    let req = Option.value req ~default:(current_req ()) in
    let id = fresh_id () in
    let saved = Domain.DLS.get stack in
    Domain.DLS.set stack ((id, req) :: saved);
    let t0 = Timing.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Timing.now_ns () in
        Domain.DLS.set stack saved;
        push { id; parent; req; name; t0; t1 })
      f
  end

let all () =
  Mutex.lock lock;
  let l = !buf in
  Mutex.unlock lock;
  List.sort (fun a b -> compare a.id b.id) l

let dur_ms s = Timing.ms_between s.t0 s.t1

(* length of the union of [intervals], each clipped to [lo, hi] *)
let covered lo hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if Int64.compare a b < 0 then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
            if Int64.compare a cb <= 0 then (total, Some (ca, max cb b))
            else (Int64.add total (Int64.sub cb ca), Some (a, b)))
      (0L, None) clipped
  in
  match last with
  | None -> total
  | Some (a, b) -> Int64.add total (Int64.sub b a)

let self_ms spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.t0, s.t1)
          :: Option.value (Hashtbl.find_opt children s.parent) ~default:[]))
    spans;
  let self = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      let kids = Option.value (Hashtbl.find_opt children s.id) ~default:[] in
      let inner = covered s.t0 s.t1 kids in
      Hashtbl.replace self s.id
        (Int64.to_float (Int64.sub (Int64.sub s.t1 s.t0) inner) /. 1e6))
    spans;
  self

let write_jsonl path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%S,\"t0_ns\":%Ld,\"t1_ns\":%Ld}\n"
        s.id s.parent s.req s.name s.t0 s.t1)
    (all ());
  close_out oc
