type t = { metrics : Metrics.t; spans : Span.t }

let create ?(enabled = true) ~clock () =
  { metrics = Metrics.create ~enabled (); spans = Span.create ~enabled ~clock () }

let is_enabled t = Metrics.is_enabled t.metrics

let detach t = { t with spans = Span.detach t.spans }
