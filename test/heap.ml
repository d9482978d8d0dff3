(* Array-backed binary min-heap: the event queue of the boxed-heap
   reference engine in reference.ml. Keys are compared with a
   user-supplied total order. *)

type 'a t = {
  mutable data : 'a array;
  mutable size : int;
  compare : 'a -> 'a -> int;
}

let create cmp = { data = [||]; size = 0; compare = cmp }

let length h = h.size

let is_empty h = h.size = 0

let grow h x =
  let cap = Array.length h.data in
  if h.size = cap then begin
    let ncap = max 16 (2 * cap) in
    let ndata = Array.make ncap x in
    Array.blit h.data 0 ndata 0 h.size;
    h.data <- ndata
  end

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.compare h.data.(i) h.data.(parent) < 0 then begin
      let tmp = h.data.(i) in
      h.data.(i) <- h.data.(parent);
      h.data.(parent) <- tmp;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.size && h.compare h.data.(l) h.data.(!smallest) < 0 then smallest := l;
  if r < h.size && h.compare h.data.(r) h.data.(!smallest) < 0 then smallest := r;
  if !smallest <> i then begin
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(!smallest);
    h.data.(!smallest) <- tmp;
    sift_down h !smallest
  end

let push h x =
  grow h x;
  h.data.(h.size) <- x;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let peek h = if h.size = 0 then None else Some h.data.(0)

let pop h =
  if h.size = 0 then None
  else begin
    let top = h.data.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.data.(0) <- h.data.(h.size);
      sift_down h 0
    end;
    Some top
  end

(* Visit every element in unspecified (array) order, no mutation. *)
let iter h f =
  for i = 0 to h.size - 1 do
    f h.data.(i)
  done

let to_list h =
  let rec drain acc = match pop h with None -> List.rev acc | Some x -> drain (x :: acc) in
  drain []
